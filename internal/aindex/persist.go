package aindex

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"quepa/internal/core"
)

// This file persists an A' index as a versioned binary snapshot
// (WriteSnapshot/ReadSnapshot): a sorted key table followed by the canonical
// edge list as key-id pairs, stamped with the WAL epoch fence the snapshot
// corresponds to and trailed by a CRC32C of everything before it, so a
// reader can tell a valid file from a torn or corrupt one. It is the one A'
// file format: the checkpoint of the durability subsystem (internal/wal),
// the file quepa-collect -out writes and quepa-server -index loads (the
// paper deploys one A' index replica per instance).

// Binary snapshot format, version 1. All integers little-endian.
//
//	magic   "QPCK"                         4 bytes
//	version uint16                         currently 1
//	epoch   uint64                         WAL epoch fence of the snapshot
//	nodes   uint32                         key-table size
//	keys    nodes × (uvarint len + bytes)  gk.String(), sorted ascending
//	edges   uint32                         canonical edge count (From <= To)
//	        edges × (uvarint from-id, uvarint to-id, uint8 type, uint64 prob bits)
//	crc     uint32                         CRC32C of every preceding byte
//
// The key table is the sorted key order and the edge list is Edges()'s
// canonical order, so two snapshots of equal indexes at equal epochs are
// byte-identical.

const (
	snapshotMagic   = "QPCK"
	snapshotVersion = 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcWriter tees writes into a running CRC32C and a byte count.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, castagnoli, p[:n])
	cw.n += int64(n)
	return n, err
}

// WriteSnapshot serializes a canonical edge list (as produced by Edges or
// EdgesWithEpoch) in the binary snapshot format, stamped with the given WAL
// epoch. It returns the number of bytes written.
func WriteSnapshot(w io.Writer, edges []core.PRelation, epoch uint64) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}

	// Key table: every distinct endpoint, sorted. Edges() is sorted by
	// (From, To) with From <= To, so collecting and sorting the union is
	// deterministic.
	keySet := make(map[core.GlobalKey]struct{}, 2*len(edges))
	for _, e := range edges {
		keySet[e.From] = struct{}{}
		keySet[e.To] = struct{}{}
	}
	keys := make([]core.GlobalKey, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, core.GlobalKey.Compare)
	ids := make(map[core.GlobalKey]uint64, len(keys))
	for i, k := range keys {
		ids[k] = uint64(i)
	}

	var scratch [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := cw.Write(scratch[:n])
		return err
	}
	if _, err := io.WriteString(cw, snapshotMagic); err != nil {
		return cw.n, err
	}
	var fixed [8]byte
	binary.LittleEndian.PutUint16(fixed[:2], snapshotVersion)
	if _, err := cw.Write(fixed[:2]); err != nil {
		return cw.n, err
	}
	binary.LittleEndian.PutUint64(fixed[:], epoch)
	if _, err := cw.Write(fixed[:8]); err != nil {
		return cw.n, err
	}
	binary.LittleEndian.PutUint32(fixed[:4], uint32(len(keys)))
	if _, err := cw.Write(fixed[:4]); err != nil {
		return cw.n, err
	}
	for _, k := range keys {
		s := k.String()
		if err := writeUvarint(uint64(len(s))); err != nil {
			return cw.n, err
		}
		if _, err := io.WriteString(cw, s); err != nil {
			return cw.n, err
		}
	}
	binary.LittleEndian.PutUint32(fixed[:4], uint32(len(edges)))
	if _, err := cw.Write(fixed[:4]); err != nil {
		return cw.n, err
	}
	for _, e := range edges {
		if err := writeUvarint(ids[e.From]); err != nil {
			return cw.n, err
		}
		if err := writeUvarint(ids[e.To]); err != nil {
			return cw.n, err
		}
		fixed[0] = byte(e.Type)
		if _, err := cw.Write(fixed[:1]); err != nil {
			return cw.n, err
		}
		binary.LittleEndian.PutUint64(fixed[:], math.Float64bits(e.Prob))
		if _, err := cw.Write(fixed[:8]); err != nil {
			return cw.n, err
		}
	}
	// CRC trailer over everything written so far (not itself CRC'd).
	binary.LittleEndian.PutUint32(fixed[:4], cw.crc)
	if _, err := bw.Write(fixed[:4]); err != nil {
		return cw.n, err
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n + 4, nil
}

// crcReader mirrors crcWriter on the read side.
type crcReader struct {
	r   *bufio.Reader
	crc uint32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc = crc32.Update(cr.crc, castagnoli, p[:n])
	return n, err
}

func (cr *crcReader) ReadByte() (byte, error) {
	b, err := cr.r.ReadByte()
	if err == nil {
		cr.crc = crc32.Update(cr.crc, castagnoli, []byte{b})
	}
	return b, err
}

// ReadSnapshot loads a binary snapshot, verifying structure, every relation,
// and the CRC trailer. It returns the index and the WAL epoch the snapshot
// was stamped with. Any malformation — bad magic, unknown version, an
// out-of-range id, a relation that fails validation, a CRC mismatch — is an
// error; recovery treats such a checkpoint as invalid and falls back to the
// previous one.
func ReadSnapshot(r io.Reader) (*Index, uint64, error) {
	cr := &crcReader{r: bufio.NewReader(r)}
	var buf [8]byte
	if _, err := io.ReadFull(cr, buf[:4]); err != nil {
		return nil, 0, fmt.Errorf("aindex: snapshot magic: %w", err)
	}
	if string(buf[:4]) != snapshotMagic {
		return nil, 0, fmt.Errorf("aindex: bad snapshot magic %q", buf[:4])
	}
	if _, err := io.ReadFull(cr, buf[:2]); err != nil {
		return nil, 0, fmt.Errorf("aindex: snapshot version: %w", err)
	}
	if v := binary.LittleEndian.Uint16(buf[:2]); v != snapshotVersion {
		return nil, 0, fmt.Errorf("aindex: unsupported snapshot version %d", v)
	}
	if _, err := io.ReadFull(cr, buf[:8]); err != nil {
		return nil, 0, fmt.Errorf("aindex: snapshot epoch: %w", err)
	}
	epoch := binary.LittleEndian.Uint64(buf[:8])
	if _, err := io.ReadFull(cr, buf[:4]); err != nil {
		return nil, 0, fmt.Errorf("aindex: snapshot key count: %w", err)
	}
	nKeys := binary.LittleEndian.Uint32(buf[:4])
	const maxKeys = 1 << 28 // refuse absurd allocations from corrupt headers
	if nKeys > maxKeys {
		return nil, 0, fmt.Errorf("aindex: snapshot claims %d keys", nKeys)
	}
	// The count is a claim. Every key costs the input at least one byte, so
	// growing the table as keys actually arrive makes a truncated or corrupt
	// file fail at its real size instead of allocating 2^28 × 48 B up front.
	keys := make([]core.GlobalKey, 0, min(nKeys, 4096))
	for i := uint32(0); i < nKeys; i++ {
		l, err := binary.ReadUvarint(cr)
		if err != nil {
			return nil, 0, fmt.Errorf("aindex: snapshot key %d length: %w", i, err)
		}
		if l > 1<<20 {
			return nil, 0, fmt.Errorf("aindex: snapshot key %d length %d", i, l)
		}
		raw := make([]byte, l)
		if _, err := io.ReadFull(cr, raw); err != nil {
			return nil, 0, fmt.Errorf("aindex: snapshot key %d: %w", i, err)
		}
		gk, err := core.ParseGlobalKey(string(raw))
		if err != nil {
			return nil, 0, fmt.Errorf("aindex: snapshot key %d: %w", i, err)
		}
		keys = append(keys, gk)
	}
	if _, err := io.ReadFull(cr, buf[:4]); err != nil {
		return nil, 0, fmt.Errorf("aindex: snapshot edge count: %w", err)
	}
	nEdges := binary.LittleEndian.Uint32(buf[:4])
	if nEdges > maxKeys {
		return nil, 0, fmt.Errorf("aindex: snapshot claims %d edges", nEdges)
	}
	// The index is private until returned: the edges go in unlocked.
	ix := New()
	for i := uint32(0); i < nEdges; i++ {
		from, err := binary.ReadUvarint(cr)
		if err != nil {
			return nil, 0, fmt.Errorf("aindex: snapshot edge %d: %w", i, err)
		}
		to, err := binary.ReadUvarint(cr)
		if err != nil {
			return nil, 0, fmt.Errorf("aindex: snapshot edge %d: %w", i, err)
		}
		if from >= uint64(nKeys) || to >= uint64(nKeys) {
			return nil, 0, fmt.Errorf("aindex: snapshot edge %d references key %d of %d", i, max(from, to), nKeys)
		}
		if _, err := io.ReadFull(cr, buf[:1]); err != nil {
			return nil, 0, fmt.Errorf("aindex: snapshot edge %d type: %w", i, err)
		}
		typ := core.RelType(buf[0])
		if _, err := io.ReadFull(cr, buf[:8]); err != nil {
			return nil, 0, fmt.Errorf("aindex: snapshot edge %d prob: %w", i, err)
		}
		prob := math.Float64frombits(binary.LittleEndian.Uint64(buf[:8]))
		rel := core.PRelation{From: keys[from], To: keys[to], Type: typ, Prob: prob}
		if err := rel.Validate(); err != nil {
			return nil, 0, fmt.Errorf("aindex: snapshot edge %d: %w", i, err)
		}
		ix.setEdgeLocked(ix.internLocked(rel.From), ix.internLocked(rel.To), typ, prob)
	}
	sum := cr.crc
	if _, err := io.ReadFull(cr.r, buf[:4]); err != nil {
		return nil, 0, fmt.Errorf("aindex: snapshot crc: %w", err)
	}
	if got := binary.LittleEndian.Uint32(buf[:4]); got != sum {
		return nil, 0, fmt.Errorf("aindex: snapshot crc mismatch: stored %08x, computed %08x", got, sum)
	}
	ix.packLocked()
	return ix.freeze(), epoch, nil
}
