// Package workload builds the Polyphony polystore of the paper's empirical
// evaluation (Section VII-A): a catalogue document store, a transactions
// relational database, a shared discounts key-value store and a
// similar-items graph, populated with deterministic synthetic music data
// standing in for the Last.fm/MusicBrainz datasets, plus the A' index
// linking them.
//
// Like the paper, the polystore can be grown by replication: every
// replication round clones the catalogue, transactions and similar-items
// databases (Redis stays single), registering each replica as a completely
// different database and extending the A' index accordingly. The paper's
// polystore variants with 4, 7, 10 and 13 databases correspond to 0–3
// replication rounds.
//
// Every generated object carries a "seq" field so that queries with an
// exact result cardinality can be formed on any store (the paper's test bed
// uses queries retrieving 100–10,000 objects).
package workload

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"quepa/internal/aindex"
	"quepa/internal/connector"
	"quepa/internal/core"
	"quepa/internal/netsim"
	"quepa/internal/stores/docstore"
	"quepa/internal/stores/graphstore"
	"quepa/internal/stores/kvstore"
	"quepa/internal/stores/relstore"
)

// Spec sizes the generated data. The zero value is unusable; start from
// DefaultSpec and adjust (or Scale).
type Spec struct {
	Seed             int64
	Artists          int     // number of artists
	AlbumsPerArtist  int     // albums per artist
	Customers        int     // customer profiles (synthetic, as in the paper)
	SalesPerAlbum    int     // sales rows per album
	DiscountFraction float64 // share of albums with a discount entry
	SimilarPerItem   int     // SIMILAR edges per graph node
	ReplicaRounds    int     // each round adds 3 databases (all but Redis)
}

// DefaultSpec is a laptop-scale instance preserving the paper's ratios
// (MySQL largest, then MongoDB, Neo4j, Redis smallest).
func DefaultSpec() Spec {
	return Spec{
		Seed:             1,
		Artists:          120,
		AlbumsPerArtist:  5,
		Customers:        200,
		SalesPerAlbum:    2,
		DiscountFraction: 0.5,
		SimilarPerItem:   2,
		ReplicaRounds:    0,
	}
}

// Scale multiplies the entity counts by f (minimum 1 each).
func (s Spec) Scale(f float64) Spec {
	mul := func(n int) int {
		v := int(float64(n) * f)
		if v < 1 {
			v = 1
		}
		return v
	}
	s.Artists = mul(s.Artists)
	s.Customers = mul(s.Customers)
	return s
}

// Albums returns the number of generated albums.
func (s Spec) Albums() int { return s.Artists * s.AlbumsPerArtist }

// Databases returns the database count of the polystore: the 4 base stores
// plus 3 per replication round.
func (s Spec) Databases() int { return 4 + 3*s.ReplicaRounds }

// Built is a generated polystore with its A' index and metadata.
type Built struct {
	Spec  Spec
	Poly  *core.Polystore
	Index *aindex.Index
	// databases in registration order (base stores first, then replicas).
	databases []string
	// discountKeys maps album index -> discount key ("" when none).
	discountKeys []string
}

// Databases lists the database names in registration order.
func (b *Built) Databases() []string {
	out := make([]string, len(b.databases))
	copy(out, b.databases)
	return out
}

// Deployment selects the netsim profile stores are wrapped with.
type Deployment struct {
	Profile netsim.Profile
	// Sleep overrides the sleeper (nil = time.Sleep). Tests inject a
	// recorder; benchmarks use real sleeps.
	Sleep func(time.Duration)
}

// Centralized and Distributed are the two deployments of Section VII-A.
func Centralized() Deployment { return Deployment{Profile: netsim.Centralized} }

// Distributed places every store in a different "region".
func Distributed() Deployment { return Deployment{Profile: netsim.Distributed} }

// Colocated has no simulated network cost (unit tests).
func Colocated() Deployment { return Deployment{Profile: netsim.Colocated} }

// wordsA/wordsB drive deterministic name synthesis.
var (
	wordsA = []string{"Black", "Silent", "Electric", "Golden", "Crimson", "Velvet", "Broken", "Midnight", "Neon", "Pale", "Wild", "Hollow", "Lunar", "Static", "Frozen"}
	wordsB = []string{"Parade", "Mirror", "Garden", "Echo", "Horizon", "Harvest", "Signal", "Voyage", "Window", "Empire", "Winter", "Motel", "Lantern", "Arcade", "Meadow"}
	genres = []string{"rock", "pop", "jazz", "electronic", "folk", "metal", "ambient"}
)

// Build generates the polystore described by the spec, wraps every store
// with the deployment's network profile and loads the A' index. The
// p-relations it asserts are dropped once the index is loaded: serving
// reads the index alone.
func Build(spec Spec, deploy Deployment) (*Built, error) {
	b, _, err := BuildWithRelations(spec, deploy)
	return b, err
}

// BuildWithRelations is Build that also returns the p-relations asserted
// during generation, in insertion order (the materialized closure in Index
// is larger). The ablation experiment replays them.
func BuildWithRelations(spec Spec, deploy Deployment) (*Built, []core.PRelation, error) {
	if spec.Artists <= 0 || spec.AlbumsPerArtist <= 0 {
		return nil, nil, fmt.Errorf("workload: spec must have positive artists and albums per artist")
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	b := &Built{Spec: spec, Poly: core.NewPolystore()}

	// Replica group 0 is the base polystore; further groups are replicas.
	var rels []core.PRelation
	for group := 0; group <= spec.ReplicaRounds; group++ {
		var err error
		if rels, err = b.buildGroup(spec, group, rng, deploy, rels); err != nil {
			return nil, nil, err
		}
	}
	// BulkLoad replays the relations in order through Insert's closure into
	// an index no reader sees yet, and packs its rows into one array.
	index, err := aindex.BulkLoad(rels)
	if err != nil {
		return nil, nil, err
	}
	b.Index = index
	return b, rels, nil
}

// groupName suffixes replica databases ("catalogue", "catalogue-2", ...).
func groupName(base string, group int) string {
	if group == 0 {
		return base
	}
	return fmt.Sprintf("%s-%d", base, group+1)
}

// buildGroup generates one replica group's stores and appends the
// p-relations it asserts to rels.
func (b *Built) buildGroup(spec Spec, group int, rng *rand.Rand, deploy Deployment, rels []core.PRelation) ([]core.PRelation, error) {
	albums := spec.Albums()
	catalogueName := groupName("catalogue", group)
	transactionsName := groupName("transactions", group)
	similarName := groupName("similar-items", group)

	doc := docstore.New(catalogueName)
	rel := relstore.New(transactionsName)
	graph := graphstore.New(similarName)

	for _, sql := range []string{
		`CREATE TABLE inventory (id TEXT PRIMARY KEY, seq INT, artist TEXT, name TEXT, genre TEXT, price FLOAT)`,
		`CREATE TABLE sales (id TEXT PRIMARY KEY, seq INT, customer TEXT, item TEXT, total FLOAT)`,
		`CREATE TABLE customers (id TEXT PRIMARY KEY, seq INT, name TEXT, city TEXT)`,
	} {
		if _, err := rel.Exec(sql); err != nil {
			return nil, err
		}
	}

	var kv *kvstore.Store
	if group == 0 {
		kv = kvstore.New("discount")
	}

	type albumMeta struct {
		artist, title string
		year          int
		discounted    bool
	}
	metas := make([]albumMeta, albums)
	for i := 0; i < albums; i++ {
		artistIdx := i / spec.AlbumsPerArtist
		artist := fmt.Sprintf("%s %s", wordsA[artistIdx%len(wordsA)], wordsB[(artistIdx/len(wordsA))%len(wordsB)])
		if artistIdx >= len(wordsA)*len(wordsB) {
			artist = fmt.Sprintf("%s %d", artist, artistIdx)
		}
		title := fmt.Sprintf("%s %s", wordsA[rng.Intn(len(wordsA))], wordsB[rng.Intn(len(wordsB))])
		metas[i] = albumMeta{
			artist:     artist,
			title:      title,
			year:       1970 + rng.Intn(55),
			discounted: group == 0 && rng.Float64() < spec.DiscountFraction,
		}
	}

	// Catalogue documents.
	for i, m := range metas {
		docJSON := fmt.Sprintf(`{"_id": "d%d", "seq": %d, "title": %q, "artist": %q, "artist_id": "ar%d", "year": %d, "genre": %q}`,
			i, i, m.title, m.artist, i/spec.AlbumsPerArtist, m.year, genres[i%len(genres)])
		if _, err := doc.Insert("albums", docJSON); err != nil {
			return nil, err
		}
	}

	// Inventory rows (batched inserts keep setup fast).
	var sb strings.Builder
	flushInsert := func(table string) error {
		if sb.Len() == 0 {
			return nil
		}
		if _, err := rel.Exec(fmt.Sprintf("INSERT INTO %s VALUES %s", table, sb.String())); err != nil {
			return err
		}
		sb.Reset()
		return nil
	}
	for i, m := range metas {
		if sb.Len() > 0 {
			sb.WriteByte(',')
		}
		price := 8 + rng.Float64()*20
		fmt.Fprintf(&sb, "('a%d', %d, '%s', '%s', '%s', %.2f)",
			i, i, sqlEscape(m.artist), sqlEscape(m.title), genres[i%len(genres)], price)
		if (i+1)%500 == 0 {
			if err := flushInsert("inventory"); err != nil {
				return nil, err
			}
		}
	}
	if err := flushInsert("inventory"); err != nil {
		return nil, err
	}

	// Customers.
	for c := 0; c < spec.Customers; c++ {
		if sb.Len() > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "('c%d', %d, 'Customer %d', 'City %d')", c, c, c, c%37)
		if (c+1)%500 == 0 {
			if err := flushInsert("customers"); err != nil {
				return nil, err
			}
		}
	}
	if err := flushInsert("customers"); err != nil {
		return nil, err
	}

	// Sales: SalesPerAlbum rows per album, customer round-robin.
	saleID := 0
	for i := range metas {
		for s := 0; s < spec.SalesPerAlbum; s++ {
			if sb.Len() > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "('s%d', %d, 'c%d', 'a%d', %.2f)",
				saleID, saleID, saleID%maxInt(spec.Customers, 1), i, 5+rng.Float64()*40)
			saleID++
			if saleID%500 == 0 {
				if err := flushInsert("sales"); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := flushInsert("sales"); err != nil {
		return nil, err
	}

	// Graph nodes and similarity edges.
	for i, m := range metas {
		if err := graph.AddNode(fmt.Sprintf("n%d", i), "items", map[string]string{
			"seq":   fmt.Sprintf("%d", i),
			"title": m.title,
			"genre": genres[i%len(genres)],
		}); err != nil {
			return nil, err
		}
	}
	for i := range metas {
		for e := 0; e < spec.SimilarPerItem; e++ {
			j := rng.Intn(albums)
			if j == i {
				continue
			}
			// Edges carry no weight; this draw stands for the one that made
			// it. The discounts below read the same rng, so dropping the draw
			// would change the generated data.
			_ = rng.Float64()
			if err := graph.AddEdge(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", j), "SIMILAR"); err != nil {
				return nil, err
			}
		}
	}

	// Discounts (base group only; Redis is shared and single).
	if kv != nil {
		for i, m := range metas {
			if m.discounted {
				key := fmt.Sprintf("k%d:%s", i, strings.ToLower(strings.ReplaceAll(m.title, " ", ":")))
				kv.Set("drop", key, fmt.Sprintf("%d%%", 5+rng.Intn(60)))
				b.discountKeys = append(b.discountKeys, key)
			} else {
				b.discountKeys = append(b.discountKeys, "")
			}
		}
	}

	// Secondary indexes on seq, declared after the bulk load so each is built
	// with one sort: the test bed selects by seq on every scan store, and the
	// paper's MySQL, MongoDB and Neo4j answer that from an index.
	if _, err := rel.Exec(`CREATE INDEX ON inventory (seq)`); err != nil {
		return nil, err
	}
	if err := doc.CreateIndex("albums", "seq"); err != nil {
		return nil, err
	}
	if err := graph.CreateIndex("items", "seq"); err != nil {
		return nil, err
	}

	// Register stores, wrapped with the deployment profile.
	wrap := func(s core.Store) core.Store {
		if deploy.Profile == (netsim.Profile{}) && deploy.Sleep == nil {
			return s
		}
		return netsim.Wrap(s, deploy.Profile, deploy.Sleep)
	}
	stores := []core.Store{
		connector.NewDocument(doc),
		connector.NewRelational(rel),
		connector.NewGraph(graph),
	}
	if kv != nil {
		stores = append(stores, connector.NewKeyValue(kv))
	}
	for _, s := range stores {
		if err := b.Poly.Register(wrap(s)); err != nil {
			return nil, err
		}
		b.databases = append(b.databases, s.Name())
	}

	// A' index: identities within each album's cross-store copies, plus
	// matchings from sales to inventory.
	for i := range metas {
		dGK := core.NewGlobalKey(catalogueName, "albums", fmt.Sprintf("d%d", i))
		aGK := core.NewGlobalKey(transactionsName, "inventory", fmt.Sprintf("a%d", i))
		nGK := core.NewGlobalKey(similarName, "items", fmt.Sprintf("n%d", i))
		rels = append(rels, core.NewIdentity(dGK, aGK, 0.90+0.09*rng.Float64()))
		rels = append(rels, core.NewIdentity(dGK, nGK, 0.90+0.09*rng.Float64()))
		if group == 0 && b.discountKeys[i] != "" {
			kGK := core.NewGlobalKey("discount", "drop", b.discountKeys[i])
			rels = append(rels, core.NewIdentity(dGK, kGK, 0.90+0.09*rng.Float64()))
		}
		if group > 0 {
			// Replicas are linked to the base catalogue object, so queries on
			// any database reach the replicas' identity class too, growing the
			// augmented answer with the polystore, as in the paper's setup.
			baseGK := core.NewGlobalKey("catalogue", "albums", fmt.Sprintf("d%d", i))
			rels = append(rels, core.NewIdentity(baseGK, dGK, 0.90+0.09*rng.Float64()))
		}
	}
	// Matching p-relations: each sale matches its inventory item.
	saleID = 0
	for i := range metas {
		for s := 0; s < spec.SalesPerAlbum; s++ {
			sGK := core.NewGlobalKey(transactionsName, "sales", fmt.Sprintf("s%d", saleID))
			aGK := core.NewGlobalKey(transactionsName, "inventory", fmt.Sprintf("a%d", i))
			rels = append(rels, core.NewMatching(sGK, aGK, 0.60+0.29*rng.Float64()))
			saleID++
		}
	}
	return rels, nil
}

func sqlEscape(s string) string { return strings.ReplaceAll(s, "'", "''") }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
