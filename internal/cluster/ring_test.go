package cluster

import (
	"fmt"
	"testing"
	"testing/quick"

	"quepa/internal/core"
)

// sampleKeys generates n deterministic GlobalKey-shaped strings spanning a
// few databases and collections, the population the ring properties are
// checked over.
func sampleKeys(n int) []string {
	dbs := []string{"catalogue", "transactions", "discount", "similar-items"}
	colls := []string{"albums", "sales", "discounts", "items"}
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s.%s.k%04d", dbs[i%len(dbs)], colls[(i/3)%len(colls)], i)
	}
	return out
}

// TestRingOwnerIsStableAndInRange: exactly one owner per key at any peer
// count — Owner is deterministic across independently built rings (what
// lets peers route without a membership protocol) and always a valid shard.
func TestRingOwnerIsStableAndInRange(t *testing.T) {
	prop := func(key string, peers8 uint8) bool {
		n := int(peers8%8) + 1
		a, err := NewRing(n, 0, 0)
		if err != nil {
			return false
		}
		b, _ := NewRing(n, 0, 0)
		oa, ob := a.OwnerString(key), b.OwnerString(key)
		return oa == ob && oa >= 0 && oa < n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestRingJoinRemapsOnlyToNewPeer: growing the ring from n to n+1 peers
// moves keys only TO the joining peer — a key never migrates between two
// surviving peers. This is the structural half of the ≤1/N guarantee and
// must hold for every key, so it is quick-checked over arbitrary strings.
func TestRingJoinRemapsOnlyToNewPeer(t *testing.T) {
	prop := func(key string, peers8 uint8) bool {
		n := int(peers8%7) + 1
		small, _ := NewRing(n, 0, 0)
		big, _ := NewRing(n+1, 0, 0)
		before, after := small.OwnerString(key), big.OwnerString(key)
		return before == after || after == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestRingLeaveRemapsOnlyFromRemovedPeer: shrinking from n to n-1 peers
// moves only the removed peer's keys; everything else stays put.
func TestRingLeaveRemapsOnlyFromRemovedPeer(t *testing.T) {
	prop := func(key string, peers8 uint8) bool {
		n := int(peers8%7) + 2
		big, _ := NewRing(n, 0, 0)
		small, _ := NewRing(n-1, 0, 0)
		before, after := big.OwnerString(key), small.OwnerString(key)
		if before == n-1 {
			return after >= 0 && after < n-1
		}
		return before == after
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestRingJoinRemapFraction: the quantitative half of the guarantee — over a
// large key population, the fraction moved by a join is close to the ideal
// 1/(n+1), never wildly above it.
func TestRingJoinRemapFraction(t *testing.T) {
	keys := sampleKeys(20000)
	for n := 1; n <= 6; n++ {
		small, _ := NewRing(n, 0, 0)
		big, _ := NewRing(n+1, 0, 0)
		moved := 0
		for _, k := range keys {
			if small.OwnerString(k) != big.OwnerString(k) {
				moved++
			}
		}
		frac := float64(moved) / float64(len(keys))
		ideal := 1.0 / float64(n+1)
		if frac > 2.2*ideal {
			t.Errorf("join %d→%d peers moved %.3f of keys, ideal %.3f", n, n+1, frac, ideal)
		}
		if moved == 0 {
			t.Errorf("join %d→%d peers moved nothing — new peer owns no keys", n, n+1)
		}
	}
}

// TestRingBalance: with DefaultVnodes the per-peer key share stays within a
// reasonable band of the ideal 1/n.
func TestRingBalance(t *testing.T) {
	keys := sampleKeys(20000)
	for _, n := range []int{2, 4, 8} {
		r, _ := NewRing(n, 0, 0)
		counts := make([]int, n)
		for _, k := range keys {
			counts[r.OwnerString(k)]++
		}
		ideal := float64(len(keys)) / float64(n)
		for s, c := range counts {
			if ratio := float64(c) / ideal; ratio < 0.5 || ratio > 1.6 {
				t.Errorf("%d peers: shard %d owns %d keys (%.2f× ideal)", n, s, c, ratio)
			}
		}
	}
}

// TestRingRangesAgreeWithOwner: the published hash arcs are the routing
// truth — for sampled keys, the unique shard whose range contains the key's
// hash is its Owner, and the arcs tile the full 64-bit space exactly once.
func TestRingRangesAgreeWithOwner(t *testing.T) {
	r, err := NewRing(3, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	ranges := map[int][]Range{}
	total := uint64(0)
	points := 0
	for s := 0; s < r.Peers(); s++ {
		ranges[s] = r.Ranges(s)
		points += len(ranges[s])
		for _, rg := range ranges[s] {
			total += rg.To - rg.From + 1 // wraps deliberately for the wrap arc
		}
	}
	if points != r.Peers()*r.Vnodes() {
		t.Errorf("ranges hold %d arcs, want %d", points, r.Peers()*r.Vnodes())
	}
	if total != 0 { // sum of arc lengths mod 2^64 == 2^64 ≡ 0: exact tiling
		t.Errorf("arcs cover 2^64%+d hashes, want exact tiling", int64(total))
	}
	contains := func(rg Range, h uint64) bool {
		if rg.From <= rg.To {
			return h >= rg.From && h <= rg.To
		}
		return h >= rg.From || h <= rg.To // wrapping arc
	}
	for _, k := range sampleKeys(2000) {
		h := keyHash(r.seed, k)
		holders := []int{}
		for s := 0; s < r.Peers(); s++ {
			for _, rg := range ranges[s] {
				if contains(rg, h) {
					holders = append(holders, s)
					break
				}
			}
		}
		if len(holders) != 1 || holders[0] != r.OwnerString(k) {
			t.Fatalf("key %q hash %d: range holders %v, Owner %d", k, h, holders, r.OwnerString(k))
		}
	}
}

// TestRingVersionFingerprintsTopology: equal topologies agree, any change to
// peers, vnodes or seed is visible in the version.
func TestRingVersionFingerprintsTopology(t *testing.T) {
	a, _ := NewRing(3, 16, 7)
	b, _ := NewRing(3, 16, 7)
	if a.Version() != b.Version() {
		t.Error("identical topologies disagree on version")
	}
	for _, other := range []*Ring{
		mustRing(t, 4, 16, 7), mustRing(t, 3, 32, 7), mustRing(t, 3, 16, 8),
	} {
		if other.Version() == a.Version() {
			t.Errorf("topology %d/%d/%d shares a version with 3/16/7",
				other.Peers(), other.Vnodes(), other.Seed())
		}
	}
}

func mustRing(t *testing.T, n, vnodes int, seed uint64) *Ring {
	t.Helper()
	r, err := NewRing(n, vnodes, seed)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRingRejectsEmpty: a ring needs at least one peer.
func TestRingRejectsEmpty(t *testing.T) {
	if _, err := NewRing(0, 0, 0); err == nil {
		t.Error("0-peer ring accepted")
	}
	r := mustRing(t, 1, 0, 0)
	if got := r.Owner(core.NewGlobalKey("db", "c", "k")); got != 0 {
		t.Errorf("1-peer ring owner = %d", got)
	}
}
