package aindex

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

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

func TestJSONRoundTrip(t *testing.T) {
	ix := mkIndex(t,
		prel("pg.users.1", "mongo.profiles.a", core.Identity, 0.95),
		prel("mongo.profiles.a", "neo.people.x", core.Identity, 0.92),
		prel("pg.users.2", "neo.people.y", core.Matching, 0.7),
		prel("redis.cache.k1:v.2", "pg.users.1", core.Matching, 0.61), // dotted local key
	)
	var buf bytes.Buffer
	n, err := ix.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	back, err := ReadIndex(&buf)
	if err != nil {
		t.Fatalf("ReadIndex: %v", err)
	}
	if !reflect.DeepEqual(back.Edges(), ix.Edges()) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", back.Edges(), ix.Edges())
	}
}

// TestReadIndexRejectsInvalidLines pins the hardening contract: malformed
// input fails loudly with the offending line number, instead of smuggling a
// NaN probability or an unknown edge type into a live index.
func TestReadIndexRejectsInvalidLines(t *testing.T) {
	good := `{"from":"pg.users.1","to":"mongo.profiles.a","type":"identity","p":0.9}`
	cases := []struct {
		name string
		line string
		want string // substring of the error
	}{
		{"nan prob", `{"from":"pg.users.1","to":"mongo.profiles.a","type":"identity","p":null}`, "line 2"},
		{"zero prob", `{"from":"pg.users.1","to":"mongo.profiles.a","type":"identity","p":0}`, "line 2"},
		{"negative prob", `{"from":"pg.users.1","to":"mongo.profiles.a","type":"matching","p":-0.4}`, "line 2"},
		{"over-unit prob", `{"from":"pg.users.1","to":"mongo.profiles.a","type":"matching","p":1.5}`, "line 2"},
		{"unknown type", `{"from":"pg.users.1","to":"mongo.profiles.a","type":"similar","p":0.9}`, `unknown relation type "similar"`},
		{"bad from key", `{"from":"nodots","to":"mongo.profiles.a","type":"identity","p":0.9}`, "line 2"},
		{"bad to key", `{"from":"pg.users.1","to":"alsobad","type":"identity","p":0.9}`, "line 2"},
		{"self loop", `{"from":"pg.users.1","to":"pg.users.1","type":"identity","p":0.9}`, "line 2"},
		{"not json", `{"from":`, "line 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadIndex(strings.NewReader(good + "\n" + tc.line + "\n"))
			if err == nil {
				t.Fatalf("ReadIndex accepted %s", tc.line)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// Infinity can only arrive via the binary path (JSON has no Inf literal),
	// but the Validate guard must reject it all the same.
	inf := core.PRelation{
		From: core.MustParseGlobalKey("pg.users.1"),
		To:   core.MustParseGlobalKey("mongo.profiles.a"),
		Type: core.Identity,
		Prob: math.Inf(1),
	}
	if err := inf.Validate(); err == nil {
		t.Error("Validate accepted +Inf probability")
	}
	nan := inf
	nan.Prob = math.NaN()
	if err := nan.Validate(); err == nil {
		t.Error("Validate accepted NaN probability")
	}
}

// FuzzJSONRoundTrip feeds arbitrary relation quads through WriteTo/ReadIndex:
// whatever Insert accepts must survive the trip byte-exactly, and ReadIndex
// must never panic or accept a relation Validate would reject.
func FuzzJSONRoundTrip(f *testing.F) {
	f.Add("pg", "users", "1", "mongo", "profiles", "a", true, 0.9)
	f.Add("a", "b", "k.with.dots", "c", "d", "x", false, 0.5)
	f.Add("db1", "c1", "k1", "db2", "c2", "k2", true, 1.0)
	f.Fuzz(func(t *testing.T, db1, col1, key1, db2, col2, key2 string, identity bool, prob float64) {
		from := core.NewGlobalKey(db1, col1, key1)
		to := core.NewGlobalKey(db2, col2, key2)
		typ := core.Matching
		if identity {
			typ = core.Identity
		}
		rel := core.PRelation{From: from, To: to, Type: typ, Prob: prob}
		if rel.Validate() != nil {
			return // Insert would refuse it; nothing to round-trip
		}
		// Keys whose textual form does not survive the interchange format are
		// out of scope: components with dots re-parse differently, and
		// invalid UTF-8 is replaced with U+FFFD by the JSON encoder.
		if rt, err := core.ParseGlobalKey(from.String()); err != nil || rt != from {
			return
		}
		if rt, err := core.ParseGlobalKey(to.String()); err != nil || rt != to {
			return
		}
		if !utf8.ValidString(from.String()) || !utf8.ValidString(to.String()) {
			return
		}
		ix := New()
		if err := ix.Insert(rel); err != nil {
			t.Fatalf("insert of validated relation failed: %v", err)
		}
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		back, err := ReadIndex(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ReadIndex of own output: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back.Edges(), ix.Edges()) {
			t.Fatalf("round trip mismatch:\n got %v\nwant %v", back.Edges(), ix.Edges())
		}
	})
}

// FuzzReadIndexArbitrary throws arbitrary bytes at the loader: it may error,
// but must never panic and must never hand back an index with an invalid
// edge.
func FuzzReadIndexArbitrary(f *testing.F) {
	f.Add([]byte(`{"from":"pg.users.1","to":"mongo.profiles.a","type":"identity","p":0.9}`))
	f.Add([]byte("\n\n"))
	f.Add([]byte(`{"from":"a.b.c","to":"d.e.f","type":"matching","p":5}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := ReadIndex(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, e := range ix.Edges() {
			if verr := e.Validate(); verr != nil {
				t.Fatalf("loader accepted invalid edge %v: %v", e, verr)
			}
		}
	})
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
