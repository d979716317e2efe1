// The wire format.
//
// Every frame is a 4-byte big-endian length followed by a body, and every
// body opens with one version byte, frameVersion. There is one format and no
// negotiation: a peer that speaks anything else — a JSON document, a frame of
// an earlier binary generation, garbage — is refused at byte 0, which a
// client sees as a failed dial (the meta exchange is a frame like any other).
//
// The layout is fixed-order (no field tags): every field of the
// request/response structs is encoded every time, in declaration order, so
// decode is a straight-line scan. Integers are varints, floats are 8-byte
// little-endian IEEE bits, strings are length-prefixed, and the
// store/collection/field-name slots run through a per-frame intern table so a
// getbatch response naming one collection a thousand times ships it once.
// Both sides append literals to their tables under the same deterministic
// rule, so references always resolve. Key lists that arrive sorted — a reach
// op's origins, every segment of its hits — are front-coded: each key ships
// the length of the prefix it shares with its predecessor and the suffix,
// which elides most of a "db.collection.key" after the first. A reach
// request carries its level as a uvarint after the query; each hit carries
// its probability and its hop distance; a segment column closes the
// response: a run count, then one run length per origin.
//
// Allocation discipline: encoders serialize into sync.Pool-backed buffers
// and issue a single Write per frame (steady-state encode is zero-alloc);
// decoders copy the pooled read buffer into one string and slice every
// decoded string out of it (string headers are free, so decode costs O(1)
// allocations plus the slices of the result itself).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"quepa/internal/core"
)

// frameVersion is the first body byte of every frame. The values below it
// are retired: '{' opened the JSON frames and 0x02-0x07 the six binary
// layouts this format replaced, so none of them can be mistaken for it.
const frameVersion = 0x08

// internCap bounds the per-frame string intern table. The encoder and the
// decoder apply the identical "append literals while the table has room"
// rule, so their tables stay in lockstep; the cap keeps the encoder's linear
// dedup scan cheap on pathological frames.
const internCap = 64

// Op codes. 0 is reserved (invalid).
var opCodes = map[string]byte{
	opGet:      1,
	opGetBatch: 2,
	opQuery:    3,
	opMeta:     4,
	opKeyField: 5,
	opReach:    6,
}

var opNames = [...]string{
	1: opGet,
	2: opGetBatch,
	3: opQuery,
	4: opMeta,
	5: opKeyField,
	6: opReach,
}

// Response flag bits.
const flagNotFound = 1 << 0

// poolableCap is the largest buffer the codec pools keep. A large getbatch or
// query answer can run to tens of megabytes; recycling those buffers would
// pin the memory for the life of the pool, so oversized ones are dropped to
// the collector.
const poolableCap = 1 << 20

// ---------------------------------------------------------------------------
// Encoder

// encoder serializes one frame into a reusable buffer. buf[0:4] is reserved
// for the length header so a finished frame is written with one syscall.
type encoder struct {
	buf []byte
	tab []string // intern table, mirrored by the decoder
}

var encPool = sync.Pool{New: func() any { return &encoder{buf: make([]byte, 0, 512)} }}

func getEncoder() *encoder {
	e := encPool.Get().(*encoder)
	e.buf = append(e.buf[:0], 0, 0, 0, 0) // length header placeholder
	return e
}

func putEncoder(e *encoder) {
	if cap(e.buf) > poolableCap {
		return
	}
	// Drop the string references so pooled encoders don't pin payloads.
	for i := range e.tab {
		e.tab[i] = ""
	}
	e.tab = e.tab[:0]
	encPool.Put(e)
}

func (e *encoder) u8(b byte)        { e.buf = append(e.buf, b) }
func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) f64(f float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
}

// intern emits s as a 1-based back-reference when the frame already carries
// it, or as a literal (marker 0) that both sides append to their tables.
func (e *encoder) intern(s string) {
	for i, t := range e.tab {
		if t == s {
			e.uvarint(uint64(i + 1))
			return
		}
	}
	e.uvarint(0)
	e.str(s)
	if len(e.tab) < internCap {
		e.tab = append(e.tab, s)
	}
}

// frontStr emits s as (shared-prefix length with prev, suffix). Over a
// sorted key list — global keys share long "db.collection." prefixes — this
// elides most of every key after the first; the decoder rebuilds each key
// from its predecessor.
func (e *encoder) frontStr(prev, s string) {
	p := 0
	max := len(prev)
	if len(s) < max {
		max = len(s)
	}
	for p < max && prev[p] == s[p] {
		p++
	}
	e.uvarint(uint64(p))
	e.str(s[p:])
}

// segs emits a segment column: the run count, then every run length.
func (e *encoder) segs(segs []int) {
	e.uvarint(uint64(len(segs)))
	for _, n := range segs {
		e.uvarint(uint64(n))
	}
}

// finish stamps the length header and returns the complete frame, or a
// typed size violation naming the op.
func (e *encoder) finish(op string) ([]byte, error) {
	body := len(e.buf) - 4
	if body > maxFrame {
		return nil, &FrameTooLargeError{Op: op, Len: body}
	}
	binary.BigEndian.PutUint32(e.buf[:4], uint32(body))
	return e.buf, nil
}

// encodeRequest appends req in the fixed layout: every field of the request
// struct, in declaration order. A reach op's Keys are its origins, sorted,
// and go out front-coded.
func (e *encoder) encodeRequest(req *request) error {
	code, ok := opCodes[req.Op]
	if !ok {
		return fmt.Errorf("wire: cannot encode op %q", req.Op)
	}
	e.u8(frameVersion)
	e.u8(code)
	e.uvarint(req.ID)
	e.intern(req.Collection)
	e.str(req.Key)
	e.uvarint(uint64(len(req.Keys)))
	prev := ""
	for _, k := range req.Keys {
		if req.Op == opReach {
			e.frontStr(prev, k)
			prev = k
		} else {
			e.str(k)
		}
	}
	e.str(req.Query)
	e.uvarint(req.Level)
	e.str(req.Trace)
	return nil
}

// encodeResponse appends resp in the fixed layout. The object list is where
// interning pays: databases, collections and field names repeat across a
// batch and are shipped once per frame.
func (e *encoder) encodeResponse(resp *response) {
	e.u8(frameVersion)
	e.uvarint(resp.ID)
	var flags byte
	if resp.NotFound {
		flags |= flagNotFound
	}
	e.u8(flags)
	e.str(resp.Error)
	e.uvarint(uint64(len(resp.Objects)))
	for i := range resp.Objects {
		o := &resp.Objects[i]
		e.intern(o.Database)
		e.intern(o.Collection)
		e.str(o.Key)
		// Fields use a count+1 scheme so no field map and an empty one stay
		// distinct across the wire. They ship in their stored name order.
		if o.Fields.IsZero() {
			e.uvarint(0)
		} else {
			e.uvarint(uint64(o.Fields.Len()) + 1)
			for j := range o.Fields.Len() {
				name, value := o.Fields.At(j)
				e.intern(name)
				e.str(value)
			}
		}
	}
	e.str(resp.Name)
	e.varint(int64(resp.Kind))
	e.uvarint(uint64(len(resp.Collections)))
	for _, c := range resp.Collections {
		e.str(c)
	}
	e.str(resp.KeyField)
	e.uvarint(uint64(len(resp.Hits)))
	prev := ""
	for _, h := range resp.Hits {
		e.frontStr(prev, h.Key)
		e.f64(h.Prob)
		e.uvarint(uint64(h.Dist))
		prev = h.Key
	}
	// Traversal stats are counts, never negative: uvarint keeps the common
	// 64..127 range in one byte where zigzag varints would need two.
	e.uvarint(uint64(resp.Nodes))
	e.uvarint(uint64(resp.Edges))
	e.segs(resp.Segs)
}

// ---------------------------------------------------------------------------
// Decoder

// decoder scans one frame body held as a string: every decoded string is a
// zero-copy substring, so the body's single string conversion is the only
// string allocation a frame costs.
type decoder struct {
	s     string
	off   int
	tab   []string
	names []string // scratch: the field names of the object being decoded
}

var decPool = sync.Pool{New: func() any { return new(decoder) }}

func getDecoder(body string) *decoder {
	d := decPool.Get().(*decoder)
	d.s = body
	d.off = 0
	return d
}

func putDecoder(d *decoder) {
	d.s = ""
	for i := range d.tab {
		d.tab[i] = ""
	}
	d.tab = d.tab[:0]
	clear(d.names)
	d.names = d.names[:0]
	decPool.Put(d)
}

var (
	errShortFrame     = errors.New("wire: truncated frame")
	errVarintOverflow = errors.New("wire: varint overflow")
	errTrailingBytes  = errors.New("wire: trailing bytes after frame")
	errInternRange    = errors.New("wire: intern reference out of range")
	errFrontPrefix    = errors.New("wire: front-coded prefix exceeds previous key")
	errFieldOrder     = errors.New("wire: field names not strictly increasing")
)

func (d *decoder) u8() (byte, error) {
	if d.off >= len(d.s) {
		return 0, errShortFrame
	}
	b := d.s[d.off]
	d.off++
	return b, nil
}

func (d *decoder) uvarint() (uint64, error) {
	var v uint64
	var shift uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if d.off >= len(d.s) {
			return 0, errShortFrame
		}
		b := d.s[d.off]
		d.off++
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, errVarintOverflow
			}
			return v | uint64(b)<<shift, nil
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, errVarintOverflow
}

func (d *decoder) varint() (int64, error) {
	u, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x, nil
}

func (d *decoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.s)-d.off) {
		return "", errShortFrame
	}
	s := d.s[d.off : d.off+int(n)]
	d.off += int(n)
	return s, nil
}

func (d *decoder) f64() (float64, error) {
	if len(d.s)-d.off < 8 {
		return 0, errShortFrame
	}
	s := d.s[d.off : d.off+8] // little-endian, read in place: no []byte copy
	d.off += 8
	bits := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
	return math.Float64frombits(bits), nil
}

func (d *decoder) intern() (string, error) {
	v, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if v == 0 {
		s, err := d.str()
		if err != nil {
			return "", err
		}
		if len(d.tab) < internCap {
			d.tab = append(d.tab, s)
		}
		return s, nil
	}
	if v > uint64(len(d.tab)) {
		return "", errInternRange
	}
	return d.tab[v-1], nil
}

// frontStr decodes one front-coded string: the shared-prefix length against
// the previous element, then the suffix. A prefix claim longer than the
// previous key marks a corrupted frame. Keys with a nonzero prefix cost one
// concatenation; the first key of a list is still a zero-copy substring.
func (d *decoder) frontStr(prev string) (string, error) {
	p, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if p > uint64(len(prev)) {
		return "", errFrontPrefix
	}
	suffix, err := d.str()
	if err != nil {
		return "", err
	}
	if p == 0 {
		return suffix, nil
	}
	return prev[:p] + suffix, nil
}

// count reads an element count and rejects any claim the remaining bytes
// cannot possibly hold (minSize is the smallest encoding of one element), so
// a corrupted frame can never trigger a giant allocation.
func (d *decoder) count(minSize int) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64((len(d.s)-d.off)/minSize) {
		return 0, errShortFrame
	}
	return int(n), nil
}

// version consumes the frame's first byte and refuses anything but
// frameVersion, so no other format is ever parsed past byte 0.
func (d *decoder) version() error {
	b, err := d.u8()
	if err != nil {
		return err
	}
	if b != frameVersion {
		return fmt.Errorf("wire: unknown frame version byte 0x%02x", b)
	}
	return nil
}

// segs reads a frame's segment column and checks it against the length of
// the list it splits. A run count of 0 is an empty column, which splits only
// an empty list.
func (d *decoder) segs(total int) ([]int, error) {
	n, err := d.count(1)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		if total != 0 {
			return nil, errSegments
		}
		return nil, nil
	}
	segs := make([]int, 0, min(n, sliceCap))
	for i := 0; i < n; i++ {
		v, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if v > uint64(total) {
			return nil, errSegments
		}
		segs = append(segs, int(v))
	}
	if err := checkSegs(segs, total); err != nil {
		return nil, err
	}
	return segs, nil
}

// sliceCap bounds an eagerly pre-sized result slice; validated counts above
// it grow by append.
const sliceCap = 4096

// decodeRequest parses a request body. Empty slices decode to nil, which is
// what a JSON round trip of the same struct produces (every slice field is
// omitempty) and what the equivalence properties pin.
func decodeRequest(body string, req *request) error {
	d := getDecoder(body)
	defer putDecoder(d)
	*req = request{}
	if err := d.version(); err != nil {
		return err
	}
	code, err := d.u8()
	if err != nil {
		return err
	}
	if int(code) >= len(opNames) || opNames[code] == "" {
		return fmt.Errorf("wire: frame with unknown op code %d", code)
	}
	req.Op = opNames[code]
	if req.ID, err = d.uvarint(); err != nil {
		return err
	}
	if req.Collection, err = d.intern(); err != nil {
		return err
	}
	if req.Key, err = d.str(); err != nil {
		return err
	}
	nkeys, err := d.count(1)
	if err != nil {
		return err
	}
	if nkeys > 0 {
		keys := make([]string, 0, min(nkeys, sliceCap))
		prev := ""
		for i := 0; i < nkeys; i++ {
			var k string
			if req.Op == opReach {
				k, err = d.frontStr(prev)
				prev = k
			} else {
				k, err = d.str()
			}
			if err != nil {
				return err
			}
			keys = append(keys, k)
		}
		req.Keys = keys
	}
	if req.Query, err = d.str(); err != nil {
		return err
	}
	if req.Level, err = d.uvarint(); err != nil {
		return err
	}
	if req.Trace, err = d.str(); err != nil {
		return err
	}
	if d.off != len(d.s) {
		return errTrailingBytes
	}
	return nil
}

// decodeResponse parses a response body with the same JSON-equivalent
// semantics as decodeRequest.
func decodeResponse(body string, resp *response) error {
	d := getDecoder(body)
	defer putDecoder(d)
	*resp = response{}
	if err := d.version(); err != nil {
		return err
	}
	var err error
	if resp.ID, err = d.uvarint(); err != nil {
		return err
	}
	flags, err := d.u8()
	if err != nil {
		return err
	}
	resp.NotFound = flags&flagNotFound != 0
	if resp.Error, err = d.str(); err != nil {
		return err
	}
	nobjs, err := d.count(4)
	if err != nil {
		return err
	}
	if nobjs > 0 {
		objs := make([]wireObject, 0, min(nobjs, sliceCap))
		// Objects of one collection usually carry the same field names: an
		// object whose names equal its predecessor's shares that slice, and
		// every object's values are cut from one array sized on the first
		// object, so a uniform getbatch answer costs O(1) slices.
		var names, values []string
		for i := 0; i < nobjs; i++ {
			var o wireObject
			if o.Database, err = d.intern(); err != nil {
				return err
			}
			if o.Collection, err = d.intern(); err != nil {
				return err
			}
			if o.Key, err = d.str(); err != nil {
				return err
			}
			nf, err := d.count(1)
			if err != nil {
				return err
			}
			switch nf { // count+1 scheme: 0 is no field map
			case 0:
			case 1:
				o.Fields = core.SortedFields(nil, nil)
			default:
				nf--
				d.names = d.names[:0]
				if cap(values)-len(values) < nf {
					values = make([]string, 0, min(nf*(nobjs-i), sliceCap))
				}
				for j := 0; j < nf; j++ {
					name, err := d.intern()
					if err != nil {
						return err
					}
					if j > 0 && name <= d.names[j-1] {
						return errFieldOrder
					}
					val, err := d.str()
					if err != nil {
						return err
					}
					d.names = append(d.names, name)
					values = append(values, val)
				}
				if !slices.Equal(names, d.names) {
					names = slices.Clone(d.names)
				}
				o.Fields = core.SortedFields(names, values[len(values)-nf:len(values):len(values)])
			}
			objs = append(objs, o)
		}
		resp.Objects = objs
	}
	if resp.Name, err = d.str(); err != nil {
		return err
	}
	kind, err := d.varint()
	if err != nil {
		return err
	}
	resp.Kind = int(kind)
	ncols, err := d.count(1)
	if err != nil {
		return err
	}
	if ncols > 0 {
		cols := make([]string, 0, min(ncols, sliceCap))
		for i := 0; i < ncols; i++ {
			c, err := d.str()
			if err != nil {
				return err
			}
			cols = append(cols, c)
		}
		resp.Collections = cols
	}
	if resp.KeyField, err = d.str(); err != nil {
		return err
	}
	// Min element size 11: a front-coded key (prefix uvarint + suffix length),
	// its 8-byte prob and its distance uvarint.
	nhits, err := d.count(11)
	if err != nil {
		return err
	}
	if nhits > 0 {
		hits := make([]RemoteHit, 0, min(nhits, sliceCap))
		prev := ""
		for i := 0; i < nhits; i++ {
			var h RemoteHit
			if h.Key, err = d.frontStr(prev); err != nil {
				return err
			}
			if h.Prob, err = d.f64(); err != nil {
				return err
			}
			dist, err := d.uvarint()
			if err != nil {
				return err
			}
			h.Dist = int(dist)
			hits = append(hits, h)
			prev = h.Key
		}
		resp.Hits = hits
	}
	nodes, err := d.uvarint()
	if err != nil {
		return err
	}
	resp.Nodes = int(nodes)
	edges, err := d.uvarint()
	if err != nil {
		return err
	}
	resp.Edges = int(edges)
	if resp.Segs, err = d.segs(len(resp.Hits)); err != nil {
		return err
	}
	if d.off != len(d.s) {
		return errTrailingBytes
	}
	return nil
}
