// Command quickstart reproduces the paper's running example end to end: the
// Polyphony polystore of Fig. 1 (a relational transactions database, a
// document catalogue, a key-value discounts store and a similar-items
// graph), the A' index of Fig. 3, and Lucy's augmented search from the
// introduction — an SQL query over the sales department's database whose
// answer is enriched with the catalogue document and the 40% discount
// stored in systems she cannot even query.
package main

import (
	"context"
	"fmt"
	"log"

	"quepa/internal/aindex"
	"quepa/internal/augment"
	"quepa/internal/connector"
	"quepa/internal/core"
	"quepa/internal/stores/docstore"
	"quepa/internal/stores/graphstore"
	"quepa/internal/stores/kvstore"
	"quepa/internal/stores/relstore"
)

func main() {
	ctx := context.Background()

	// --- The four departments' databases (paper Fig. 1). Each speaks its
	// own language; none knows about the others. ---

	// Sales: relational, ACID transactions.
	transactions := relstore.New("transactions")
	mustExec(transactions, `CREATE TABLE inventory (id TEXT PRIMARY KEY, artist TEXT, name TEXT, price FLOAT)`)
	mustExec(transactions, `INSERT INTO inventory VALUES
		('a32', 'Cure', 'Wish', 18.50),
		('a33', 'Cure', 'Disintegration', 17.00),
		('a34', 'Radiohead', 'OK Computer', 21.00)`)
	mustExec(transactions, `CREATE TABLE sales (id TEXT PRIMARY KEY, customer TEXT, item TEXT, total FLOAT)`)
	mustExec(transactions, `INSERT INTO sales VALUES ('s8', 'John Doe', 'a32', 20.0)`)

	// Warehouse: JSON documents.
	catalogue := docstore.New("catalogue")
	mustInsertDoc(catalogue, "albums", `{"_id": "d1", "title": "Wish", "artist": "The Cure", "artist_id": "a1", "year": 1992}`)
	mustInsertDoc(catalogue, "albums", `{"_id": "d2", "title": "Disintegration", "artist": "The Cure", "artist_id": "a1", "year": 1989}`)

	// Shared discounts: key-value.
	discount := kvstore.New("discount")
	discount.Set("drop", "k1:cure:wish", "40%")

	// Marketing: similar-items graph.
	similar := graphstore.New("similar-items")
	must(similar.AddNode("n1", "items", map[string]string{"title": "Wish"}))
	must(similar.AddNode("n2", "items", map[string]string{"title": "Disintegration"}))
	must(similar.AddEdge("n1", "n2", "SIMILAR"))

	// --- The polystore: a loose registry, no global schema. ---
	poly := core.NewPolystore()
	must(poly.Register(connector.NewRelational(transactions)))
	must(poly.Register(connector.NewDocument(catalogue)))
	must(poly.Register(connector.NewKeyValue(discount)))
	must(poly.Register(connector.NewGraph(similar)))

	// --- The A' index: the p-relations of Fig. 3. Inserting the identities
	// materializes the consistency closure automatically (Fig. 4). ---
	index := aindex.New()
	gk := core.MustParseGlobalKey
	must(index.Insert(core.NewIdentity(gk("catalogue.albums.d1"), gk("transactions.inventory.a32"), 0.9)))
	must(index.Insert(core.NewIdentity(gk("catalogue.albums.d1"), gk("discount.drop.k1:cure:wish"), 0.8)))
	must(index.Insert(core.NewIdentity(gk("similar-items.items.n1"), gk("transactions.inventory.a32"), 0.85)))
	must(index.Insert(core.NewMatching(gk("transactions.sales.s8"), gk("transactions.inventory.a32"), 0.7)))
	fmt.Printf("A' index: %d global keys, %d p-relations (including materialized ones)\n\n",
		index.NodeCount(), index.EdgeCount())

	// --- Lucy's augmented search: plain SQL, augmented answer. ---
	aug := augment.New(poly, index, augment.Config{Strategy: augment.OuterBatch, BatchSize: 16, ThreadsSize: 4, CacheSize: 100})

	query := `SELECT * FROM inventory WHERE name LIKE '%wish%'`
	fmt.Printf("Lucy submits to the sales database, in augmented mode:\n    %s\n\n", query)
	answer, err := aug.Search(ctx, "transactions", query, 0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Local answer:")
	for _, o := range answer.Original {
		fmt.Printf("    %s\n", o)
	}
	fmt.Println("\nAugmentation (probability-ordered, from databases Lucy cannot query):")
	for _, ao := range answer.Augmented {
		fmt.Printf("    p=%.2f  %s\n", ao.Prob, ao.Object)
	}

	// --- Level 1 reaches one hop further (Definition 3). ---
	answer1, err := aug.Search(ctx, "transactions", query, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nAt level 1 the same query reaches %d related objects (level 0: %d).\n",
		len(answer1.Augmented), len(answer.Augmented))

	// --- Aggregates cannot be augmented: the validator says why. ---
	if _, err := aug.Search(ctx, "transactions", `SELECT COUNT(*) FROM inventory`, 0); err != nil {
		fmt.Printf("\nValidator on COUNT(*): %v\n", err)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func mustExec(db *relstore.Store, sql string) {
	if _, err := db.Exec(sql); err != nil {
		log.Fatal(err)
	}
}

func mustInsertDoc(db *docstore.Store, collection, doc string) {
	if _, err := db.Insert(collection, doc); err != nil {
		log.Fatal(err)
	}
}
