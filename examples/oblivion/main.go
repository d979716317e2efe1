// Command oblivion demonstrates the cascading deletion the paper names as
// future work in Section III-C(b): "In order to cover those use cases that
// require data oblivion, we will embed a lineage system that allows
// cascading deletions of inferred p-relations."
//
// The default A' index deletes lazily and keeps inferred p-relations when
// their source disappears — great for availability, wrong for oblivion: if
// the relation "this discount is for that album" must be forgotten, the
// materialized consequences of that assertion must go too. Holding the
// asserted p-relations is enough for that: forgetting one rebuilds the
// index, closure included, from the ones that survive.
package main

import (
	"fmt"
	"log"
	"slices"

	"quepa/internal/aindex"
	"quepa/internal/core"
)

func main() {
	gk := core.MustParseGlobalKey
	album := gk("catalogue.albums.d1")
	item := gk("transactions.inventory.a32")
	discount := gk("discount.drop.k1:cure:wish")
	sale := gk("transactions.sales.s8")

	asserted := []core.PRelation{
		core.NewIdentity(album, discount, 0.8),
		core.NewIdentity(album, item, 0.9),
		core.NewMatching(sale, item, 0.7),
	}
	index, err := aindex.BulkLoad(asserted)
	must(err)

	fmt.Println("Asserted p-relations:")
	for _, r := range asserted {
		fmt.Printf("    %v\n", r)
	}
	fmt.Printf("\nIndex after materialization: %d edges (closure included)\n", index.EdgeCount())
	if r, ok := index.Relation(item, discount); ok {
		fmt.Printf("    inferred: %v (via the album identities)\n", r)
	}
	if r, ok := index.Relation(sale, discount); ok {
		fmt.Printf("    inferred: %v (matching propagated over identity)\n", r)
	}

	// The discount relation must be forgotten (say, a data-subject request
	// or a retracted linkage). Rebuilding from the surviving assertions
	// removes it AND everything that only existed because of it.
	fmt.Println("\nForgetting album ~ discount with cascade...")
	survivors := slices.DeleteFunc(slices.Clone(asserted), func(r core.PRelation) bool {
		return r.From == album && r.To == discount
	})
	if len(survivors) == len(asserted) {
		log.Fatal("assertion was not present")
	}
	index, err = aindex.BulkLoad(survivors)
	must(err)

	fmt.Printf("Index after cascade: %d edges\n", index.EdgeCount())
	report := func(a, b core.GlobalKey, label string) {
		if r, ok := index.Relation(a, b); ok {
			fmt.Printf("    kept:   %v (%s)\n", r, label)
		} else {
			fmt.Printf("    purged: %v <-> %v (%s)\n", a, b, label)
		}
	}
	report(album, discount, "the forgotten assertion")
	report(item, discount, "was inferred via the forgotten assertion")
	report(sale, discount, "was propagated via the forgotten assertion")
	report(album, item, "independent assertion")
	report(sale, item, "independent assertion")
	report(sale, album, "re-derivable from the survivors")

	fmt.Println("\nCompare with the default lazy policy, which keeps inferred edges")
	fmt.Println("when their source vanishes (paper Section III-C(b)) — the right")
	fmt.Println("default for availability, the wrong one for oblivion.")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
