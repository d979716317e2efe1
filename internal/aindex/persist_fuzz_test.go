package aindex

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"quepa/internal/core"
)

// mkIndex builds an index from (from, to, type, prob) quads.
func mkIndex(t testing.TB, rels ...core.PRelation) *Index {
	t.Helper()
	ix := New()
	for _, r := range rels {
		if err := ix.Insert(r); err != nil {
			t.Fatalf("insert %v: %v", r, err)
		}
	}
	return ix
}

func prel(from, to string, typ core.RelType, prob float64) core.PRelation {
	return core.PRelation{
		From: core.MustParseGlobalKey(from),
		To:   core.MustParseGlobalKey(to),
		Type: typ,
		Prob: prob,
	}
}

func TestBinarySnapshotRoundTrip(t *testing.T) {
	ix := mkIndex(t,
		prel("pg.users.1", "mongo.profiles.a", core.Identity, 0.95),
		prel("mongo.profiles.a", "neo.people.x", core.Identity, 0.92),
		prel("pg.users.2", "neo.people.y", core.Matching, 0.7),
	)
	edges := ix.Edges()
	var buf bytes.Buffer
	n, err := WriteSnapshot(&buf, edges, 1234)
	if err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteSnapshot reported %d bytes, wrote %d", n, buf.Len())
	}
	back, epoch, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if epoch != 1234 {
		t.Errorf("epoch = %d, want 1234", epoch)
	}
	if !reflect.DeepEqual(back.Edges(), edges) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", back.Edges(), edges)
	}

	// Byte determinism: same edges, same epoch => identical bytes.
	var buf2 bytes.Buffer
	if _, err := WriteSnapshot(&buf2, ix.Edges(), 1234); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("snapshot serialization is not deterministic")
	}
}

func TestBinarySnapshotRejectsCorruption(t *testing.T) {
	ix := mkIndex(t,
		prel("pg.users.1", "mongo.profiles.a", core.Identity, 0.95),
		prel("pg.users.2", "neo.people.y", core.Matching, 0.7),
	)
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, ix.Edges(), 7); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()

	// Every single-byte corruption must be detected (structure check or CRC
	// trailer), and every truncation must error rather than return a partial
	// index.
	for pos := 0; pos < len(pristine); pos++ {
		mut := append([]byte(nil), pristine...)
		mut[pos] ^= 0x01
		if _, _, err := ReadSnapshot(bytes.NewReader(mut)); err == nil {
			t.Errorf("bit flip at %d went undetected", pos)
		}
	}
	for cut := 0; cut < len(pristine); cut++ {
		if _, _, err := ReadSnapshot(bytes.NewReader(pristine[:cut])); err == nil {
			t.Errorf("truncation at %d went undetected", cut)
		}
	}
}

// TestReadSnapshotRejectsInvalidRelations pins the hardening contract behind
// the CRC: a well-formed snapshot whose checksum matches still fails loudly
// when a relation would not pass Validate, instead of smuggling a NaN
// probability, an unknown edge type or a malformed key into a live index.
func TestReadSnapshotRejectsInvalidRelations(t *testing.T) {
	good := prel("pg.users.1", "mongo.profiles.a", core.Identity, 0.9)
	bad := func(mutate func(*core.PRelation)) core.PRelation {
		r := prel("pg.users.2", "neo.people.y", core.Matching, 0.7)
		mutate(&r)
		return r
	}
	cases := []struct {
		name string
		rel  core.PRelation
	}{
		{"nan prob", bad(func(r *core.PRelation) { r.Prob = math.NaN() })},
		{"zero prob", bad(func(r *core.PRelation) { r.Prob = 0 })},
		{"negative prob", bad(func(r *core.PRelation) { r.Prob = -0.4 })},
		{"over-unit prob", bad(func(r *core.PRelation) { r.Prob = 1.5 })},
		{"unknown type", bad(func(r *core.PRelation) { r.Type = core.RelType(7) })},
		{"bad from key", bad(func(r *core.PRelation) { r.From = core.GlobalKey{Database: "nodots"} })},
		{"bad to key", bad(func(r *core.PRelation) { r.To = core.GlobalKey{Database: "alsobad"} })},
		{"self loop", bad(func(r *core.PRelation) { r.To = r.From })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := WriteSnapshot(&buf, []core.PRelation{good, tc.rel}, 3); err != nil {
				t.Fatal(err)
			}
			if _, _, err := ReadSnapshot(&buf); err == nil {
				t.Fatalf("ReadSnapshot accepted %+v", tc.rel)
			}
		})
	}
}

// TestReadSnapshotClaimedCounts pins that the loader's cost follows the bytes
// it was given, not the counts the header claims: a 2^28-key table used to be
// allocated (12.9 GB, minutes of zeroing) before the first key was read.
func TestReadSnapshotClaimedCounts(t *testing.T) {
	header := func(nKeys uint32) []byte {
		b := []byte(snapshotMagic)
		b = binary.LittleEndian.AppendUint16(b, snapshotVersion)
		b = binary.LittleEndian.AppendUint64(b, 9)
		return binary.LittleEndian.AppendUint32(b, nKeys)
	}
	keys := "\x10mongo.profiles.0\x10mongo.profiles.1"
	edge := []byte{0, 1, byte(core.Identity), 0, 0, 0, 0, 0, 0, 0xe0, 0x3f} // 0 ~ 1 at 0.5
	cases := map[string][]byte{
		"2^28 keys, two present":  append(header(1<<28), keys...),
		"2^28 edges, one present": append(binary.LittleEndian.AppendUint32(append(header(2), keys...), 1<<28), edge...),
	}
	for name, data := range cases {
		start := time.Now()
		if _, _, err := ReadSnapshot(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: truncated %d-byte snapshot loaded without error", name, len(data))
		}
		if took := time.Since(start); took > 100*time.Millisecond {
			t.Errorf("%s: rejecting %d bytes took %v", name, len(data), took)
		}
	}
}

// FuzzReadSnapshot throws arbitrary bytes at the binary loader.
func FuzzReadSnapshot(f *testing.F) {
	ix := New()
	for i := 0; i < 4; i++ {
		rel := prel(
			fmt.Sprintf("pg.users.%d", i),
			fmt.Sprintf("mongo.profiles.%d", i%2),
			core.Identity, 0.9)
		if err := ix.Insert(rel); err != nil {
			f.Fatal(err)
		}
	}
	var seed bytes.Buffer
	if _, err := WriteSnapshot(&seed, ix.Edges(), 9); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("QPCK"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, _, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, e := range loaded.Edges() {
			if verr := e.Validate(); verr != nil {
				t.Fatalf("snapshot loader accepted invalid edge %v: %v", e, verr)
			}
		}
	})
}
