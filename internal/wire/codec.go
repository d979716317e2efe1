// Binary wire codec v2.
//
// Every frame on the wire is still a 4-byte big-endian length followed by a
// body, but the body's first byte now selects the codec: JSON bodies always
// open with '{' (0x7B), so a single reserved byte — binMagic — marks the
// hand-rolled binary encoding. Servers sniff the byte per frame and answer
// in the codec the request arrived in, which is what lets old JSON-only
// clients, new binary clients and mixed-version clusters share one listener.
//
// Codec v2 is negotiated, never assumed: a client opens every connection in
// JSON and offers its maximum version in the meta exchange (request.Codec);
// a v2 server echoes the agreed version back (response.Codec) and only then
// does the client switch its frames to binary. A server that predates the
// field simply omits it, and the client stays on JSON forever.
//
// The binary layout is fixed-order (no field tags): every field of the
// request/response structs is encoded every time, in declaration order, so
// decode is a straight-line scan. Integers are varints, floats are 8-byte
// little-endian IEEE bits (exact, unlike the JSON decimal detour), strings
// are length-prefixed, and the store/collection/field-name slots run through
// a per-frame intern table so a getbatch response naming one collection a
// thousand times ships it once. Both sides append literals to their tables
// under the same deterministic rule, so references always resolve.
//
// Allocation discipline: encoders serialize into sync.Pool-backed buffers
// and issue a single Write per frame (steady-state encode is zero-alloc);
// decoders copy the pooled read buffer into one string and slice every
// decoded string out of it (string headers are free, so decode costs O(1)
// allocations plus the slices/maps of the result itself).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// Frame codec versions. codecJSON is the v1 compatibility codec every server
// keeps accepting; codecBinary is the compact frame format of codec v2;
// codecDelta is codec v3, which adds the op-specific compact reach frames
// scatter legs ship (generic v2 frames remain valid on a v3 connection —
// only reach traffic uses the compact form).
const (
	codecJSON   = 1
	codecBinary = 2
	codecDelta  = 3
)

// binMagic is the first body byte of every codec-v2 frame. It can never
// collide with JSON: a JSON frame body always starts with '{' (0x7B).
const binMagic = 0x02

// binMagicDelta opens a codec-v3 compact reach frame: a reach request or
// response stripped to the fields the op actually uses. A generic v2 frame
// spends ~24 bytes encoding the empty slots of the full request/response
// structs on every scatter leg; the compact form drops them, which saves
// more reach bytes than front-coding the keys does.
const binMagicDelta = 0x03

// binMagicDeltaSeg opens a compact reach frame that carries a segment column
// (request.Segs / response.Segs): the binMagicDelta layout followed by the
// run lengths. Unsegmented frames keep binMagicDelta, so single-origin reach
// traffic is byte-identical to what it was before segments existed.
const binMagicDeltaSeg = 0x04

// deltaMagic picks the compact frame's magic for a segment column.
func deltaMagic(segs []int) byte {
	if len(segs) > 0 {
		return binMagicDeltaSeg
	}
	return binMagicDelta
}

// opSegmented, set on the op-code byte of a generic v2 request, announces a
// segment column after the last fixed field; flagSegments does the same in a
// v2 response's flag byte. Without them the layouts are unchanged.
const opSegmented = 0x80

// internCap bounds the per-frame string intern table. The encoder and the
// decoder apply the identical "append literals while the table has room"
// rule, so their tables stay in lockstep; the cap keeps the encoder's linear
// dedup scan cheap on pathological frames.
const internCap = 64

// Binary op codes, fixed for wire compatibility. 0 is reserved (invalid).
var opCodes = map[string]byte{
	opGet:      1,
	opGetBatch: 2,
	opQuery:    3,
	opMeta:     4,
	opKeyField: 5,
	opReach:    6,
	opSnapshot: 7,
}

var opNames = [...]string{
	1: opGet,
	2: opGetBatch,
	3: opQuery,
	4: opMeta,
	5: opKeyField,
	6: opReach,
	7: opSnapshot,
}

// Response flag bits.
const (
	flagNotFound = 1 << 0
	flagSegments = 1 << 1
)

// poolableCap is the largest buffer the codec pools keep. Snapshot frames
// can run to tens of megabytes; recycling those would pin the memory for the
// life of the pool, so oversized buffers are dropped to the collector.
const poolableCap = 1 << 20

// ---------------------------------------------------------------------------
// Encoder

// encoder serializes one frame into a reusable buffer. buf[0:4] is reserved
// for the length header so a finished frame is written with one syscall.
type encoder struct {
	buf    []byte
	tab    []string // intern table, mirrored by the decoder
	fields []string // scratch for deterministic field-name ordering
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
	for i := range e.fields {
		e.fields[i] = ""
	}
	e.fields = e.fields[:0]
	encPool.Put(e)
}

func (e *encoder) u8(b byte)        { e.buf = append(e.buf, b) }
func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) rawBytes(b []byte) {
	e.uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
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

// sortedFields fills e.fields with m's keys in sorted order. Insertion sort:
// field maps are tiny and the scratch slice must not allocate per frame.
func (e *encoder) sortedFields(m map[string]string) {
	e.fields = e.fields[:0]
	for k := range m {
		e.fields = append(e.fields, k)
	}
	for i := 1; i < len(e.fields); i++ {
		for j := i; j > 0 && e.fields[j] < e.fields[j-1]; j-- {
			e.fields[j], e.fields[j-1] = e.fields[j-1], e.fields[j]
		}
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

// segs emits a segment column — the run count, then every run length — or
// nothing for an absent one: frames announce the column only when it exists.
func (e *encoder) segs(segs []int) {
	if len(segs) == 0 {
		return
	}
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

// encodeRequest appends req in the fixed v2 layout. Every field of the
// request struct is encoded, in declaration order.
func (e *encoder) encodeRequest(req *request) error {
	code, ok := opCodes[req.Op]
	if !ok {
		return fmt.Errorf("wire: codec v2 cannot encode op %q", req.Op)
	}
	if len(req.Segs) > 0 {
		code |= opSegmented
	}
	e.u8(binMagic)
	e.u8(code)
	e.uvarint(req.ID)
	e.intern(req.Collection)
	e.str(req.Key)
	e.uvarint(uint64(len(req.Keys)))
	for _, k := range req.Keys {
		e.str(k)
	}
	e.str(req.Query)
	e.intern(req.Database)
	e.uvarint(uint64(len(req.Probs)))
	for _, p := range req.Probs {
		e.f64(p)
	}
	e.str(req.Trace)
	e.varint(int64(req.Codec))
	e.uvarint(uint64(len(req.Frontier)))
	prev := ""
	for _, k := range req.Frontier {
		e.frontStr(prev, k)
		prev = k
	}
	e.segs(req.Segs)
	return nil
}

// encodeDeltaRequest appends req as a codec-v3 compact reach frame: ID,
// trace, the front-coded frontier with its parallel probs and, under
// binMagicDeltaSeg, the segment column — nothing else. Only the reach op
// has a compact form (the magic byte itself names the op; a future compact
// op would claim its own magic); every other op stays on the generic v2
// layout even on a v3 connection.
func (e *encoder) encodeDeltaRequest(req *request) error {
	if req.Op != opReach {
		return fmt.Errorf("wire: codec v3 has no compact frame for op %q", req.Op)
	}
	e.u8(deltaMagic(req.Segs))
	e.uvarint(req.ID)
	// The frontier count carries a has-trace flag in its low bit: scatter
	// legs are untraced unless the query is sampled, so the common case
	// drops the empty trace string's length byte.
	head := uint64(len(req.Frontier)) << 1
	if req.Trace != "" {
		head |= 1
	}
	e.uvarint(head)
	if req.Trace != "" {
		e.str(req.Trace)
	}
	prev := ""
	for _, k := range req.Frontier {
		e.frontStr(prev, k)
		prev = k
	}
	for i := range req.Frontier {
		var p float64
		if i < len(req.Probs) {
			p = req.Probs[i]
		}
		e.f64(p)
	}
	e.segs(req.Segs)
	return nil
}

// encodeDeltaResponse appends resp as a codec-v3 compact reach frame: ID,
// error, traversal stats, the front-coded hit list and, under
// binMagicDeltaSeg, the segment column.
func (e *encoder) encodeDeltaResponse(resp *response) {
	e.u8(deltaMagic(resp.Segs))
	e.uvarint(resp.ID)
	// Like the request's trace, the hit count carries a has-error flag in
	// its low bit so the healthy path drops the empty string's length byte.
	head := uint64(len(resp.DHits)) << 1
	if resp.Error != "" {
		head |= 1
	}
	e.uvarint(head)
	if resp.Error != "" {
		e.str(resp.Error)
	}
	// Traversal stats are counts, never negative: uvarint keeps the common
	// 64..127 range in one byte where zigzag varints would need two.
	e.uvarint(uint64(resp.Nodes))
	e.uvarint(uint64(resp.Edges))
	prev := ""
	for _, h := range resp.DHits {
		e.frontStr(prev, h.Key)
		e.f64(h.Prob)
		prev = h.Key
	}
	e.segs(resp.Segs)
}

// encodeResponse appends resp in the fixed v2 layout. The object list is
// where interning pays: databases, collections and field names repeat across
// a batch and are shipped once per frame.
func (e *encoder) encodeResponse(resp *response) {
	e.u8(binMagic)
	e.uvarint(resp.ID)
	var flags byte
	if resp.NotFound {
		flags |= flagNotFound
	}
	if len(resp.Segs) > 0 {
		flags |= flagSegments
	}
	e.u8(flags)
	e.str(resp.Error)
	e.uvarint(uint64(len(resp.Objects)))
	for i := range resp.Objects {
		o := &resp.Objects[i]
		e.intern(o.Database)
		e.intern(o.Collection)
		e.str(o.Key)
		// Field maps use a count+1 scheme so the nil/empty distinction the
		// JSON codec makes ("fields" has no omitempty) survives round trips.
		if o.Fields == nil {
			e.uvarint(0)
		} else {
			e.uvarint(uint64(len(o.Fields)) + 1)
			e.sortedFields(o.Fields)
			for _, name := range e.fields {
				e.intern(name)
				e.str(o.Fields[name])
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
	for _, h := range resp.Hits {
		e.str(h.Key)
		e.f64(h.Prob)
	}
	e.varint(int64(resp.Nodes))
	e.varint(int64(resp.Edges))
	e.rawBytes(resp.Snapshot)
	e.uvarint(resp.Epoch)
	e.varint(int64(resp.Codec))
	e.uvarint(uint64(len(resp.DHits)))
	prev := ""
	for _, h := range resp.DHits {
		e.frontStr(prev, h.Key)
		e.f64(h.Prob)
		prev = h.Key
	}
	e.segs(resp.Segs)
}

// ---------------------------------------------------------------------------
// Decoder

// decoder scans one frame body held as a string: every decoded string is a
// zero-copy substring, so the body's single string conversion is the only
// string allocation a frame costs.
type decoder struct {
	s   string
	off int
	tab []string
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
	decPool.Put(d)
}

var (
	errShortFrame     = errors.New("wire: truncated codec-v2 frame")
	errVarintOverflow = errors.New("wire: codec-v2 varint overflow")
	errTrailingBytes  = errors.New("wire: trailing bytes after codec-v2 frame")
	errInternRange    = errors.New("wire: codec-v2 intern reference out of range")
	errFrontPrefix    = errors.New("wire: codec-v2 front-coded prefix exceeds previous key")
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

// rawBytes decodes a length-prefixed byte field. Unlike strings, the result
// must be a mutable copy (zero-length decodes to nil, matching omitempty).
func (d *decoder) rawBytes() ([]byte, error) {
	s, err := d.str()
	if err != nil || len(s) == 0 {
		return nil, err
	}
	return []byte(s), nil
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

// segs reads the segment column of a frame that announced one and checks it
// against the length of the list it splits. An announced column with no runs
// is rejected: the encoders never write it, so accepting it would give one
// request two encodings.
func (d *decoder) segs(total int) ([]int, error) {
	n, err := d.count(1)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, errSegments
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

// decodeRequestV2 parses a codec-v2 request body. The result matches what a
// JSON round trip of the same struct produces field for field (empty slices
// decode to nil like omitempty does), which is what the equivalence
// properties pin.
func decodeRequestV2(body string, req *request) error {
	if len(body) == 0 || body[0] != binMagic {
		return fmt.Errorf("wire: not a codec-v2 frame")
	}
	d := getDecoder(body)
	defer putDecoder(d)
	d.off = 1
	*req = request{}
	code, err := d.u8()
	if err != nil {
		return err
	}
	segmented := code&opSegmented != 0
	code &^= opSegmented
	if int(code) >= len(opNames) || opNames[code] == "" {
		return fmt.Errorf("wire: codec-v2 frame with unknown op code %d", code)
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
		for i := 0; i < nkeys; i++ {
			k, err := d.str()
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
	if req.Database, err = d.intern(); err != nil {
		return err
	}
	nprobs, err := d.count(8)
	if err != nil {
		return err
	}
	if nprobs > 0 {
		probs := make([]float64, 0, min(nprobs, sliceCap))
		for i := 0; i < nprobs; i++ {
			p, err := d.f64()
			if err != nil {
				return err
			}
			probs = append(probs, p)
		}
		req.Probs = probs
	}
	if req.Trace, err = d.str(); err != nil {
		return err
	}
	codecField, err := d.varint()
	if err != nil {
		return err
	}
	req.Codec = int(codecField)
	nfront, err := d.count(2)
	if err != nil {
		return err
	}
	if nfront > 0 {
		frontier := make([]string, 0, min(nfront, sliceCap))
		prev := ""
		for i := 0; i < nfront; i++ {
			k, err := d.frontStr(prev)
			if err != nil {
				return err
			}
			frontier = append(frontier, k)
			prev = k
		}
		req.Frontier = frontier
	}
	if segmented {
		if req.Segs, err = d.segs(segmentedLen(len(req.Frontier), len(req.Keys))); err != nil {
			return err
		}
	}
	if d.off != len(d.s) {
		return errTrailingBytes
	}
	return nil
}

// decodeDeltaRequest parses a codec-v3 compact reach frame into the same
// request struct the generic decoders fill, so the server dispatch path is
// codec-blind.
func decodeDeltaRequest(body string, req *request) error {
	if len(body) == 0 || body[0] != binMagicDelta && body[0] != binMagicDeltaSeg {
		return fmt.Errorf("wire: not a codec-v3 frame")
	}
	d := getDecoder(body)
	defer putDecoder(d)
	d.off = 1
	*req = request{}
	req.Op = opReach
	var err error
	if req.ID, err = d.uvarint(); err != nil {
		return err
	}
	head, err := d.uvarint()
	if err != nil {
		return err
	}
	if head&1 != 0 {
		if req.Trace, err = d.str(); err != nil {
			return err
		}
	}
	// Min element size 10: a front-coded key (prefix uvarint + suffix
	// length) plus its 8-byte prob in the parallel block — the same sanity
	// bound count() applies, checked by hand because of the flag bit.
	n := int(head >> 1)
	if n > (len(d.s)-d.off)/10 {
		return errShortFrame
	}
	if n > 0 {
		frontier := make([]string, 0, min(n, sliceCap))
		prev := ""
		for i := 0; i < n; i++ {
			k, err := d.frontStr(prev)
			if err != nil {
				return err
			}
			frontier = append(frontier, k)
			prev = k
		}
		probs := make([]float64, 0, min(n, sliceCap))
		for i := 0; i < n; i++ {
			p, err := d.f64()
			if err != nil {
				return err
			}
			probs = append(probs, p)
		}
		req.Frontier = frontier
		req.Probs = probs
	}
	if body[0] == binMagicDeltaSeg {
		if req.Segs, err = d.segs(n); err != nil {
			return err
		}
	}
	if d.off != len(d.s) {
		return errTrailingBytes
	}
	return nil
}

// decodeDeltaResponse parses a codec-v3 compact reach response.
func decodeDeltaResponse(body string, resp *response) error {
	if len(body) == 0 || body[0] != binMagicDelta && body[0] != binMagicDeltaSeg {
		return fmt.Errorf("wire: not a codec-v3 frame")
	}
	d := getDecoder(body)
	defer putDecoder(d)
	d.off = 1
	*resp = response{}
	var err error
	if resp.ID, err = d.uvarint(); err != nil {
		return err
	}
	head, err := d.uvarint()
	if err != nil {
		return err
	}
	if head&1 != 0 {
		if resp.Error, err = d.str(); err != nil {
			return err
		}
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
	// Same 10-byte-per-hit sanity bound as the request, checked by hand
	// because of the flag bit.
	ndhits := int(head >> 1)
	if ndhits > (len(d.s)-d.off)/10 {
		return errShortFrame
	}
	if ndhits > 0 {
		dhits := make([]RemoteHit, 0, min(ndhits, sliceCap))
		prev := ""
		for i := 0; i < ndhits; i++ {
			var h RemoteHit
			if h.Key, err = d.frontStr(prev); err != nil {
				return err
			}
			if h.Prob, err = d.f64(); err != nil {
				return err
			}
			dhits = append(dhits, h)
			prev = h.Key
		}
		resp.DHits = dhits
	}
	if body[0] == binMagicDeltaSeg {
		if resp.Segs, err = d.segs(ndhits); err != nil {
			return err
		}
	}
	if d.off != len(d.s) {
		return errTrailingBytes
	}
	return nil
}

// decodeResponseV2 parses a codec-v2 response body with the same JSON-
// equivalent semantics as decodeRequestV2.
func decodeResponseV2(body string, resp *response) error {
	if len(body) == 0 || body[0] != binMagic {
		return fmt.Errorf("wire: not a codec-v2 frame")
	}
	d := getDecoder(body)
	defer putDecoder(d)
	d.off = 1
	*resp = response{}
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
			if nf > 0 { // count+1 scheme: 0 is a nil map
				o.Fields = make(map[string]string, nf-1)
				for j := 0; j < nf-1; j++ {
					name, err := d.intern()
					if err != nil {
						return err
					}
					val, err := d.str()
					if err != nil {
						return err
					}
					o.Fields[name] = val
				}
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
	nhits, err := d.count(9)
	if err != nil {
		return err
	}
	if nhits > 0 {
		hits := make([]RemoteHit, 0, min(nhits, sliceCap))
		for i := 0; i < nhits; i++ {
			var h RemoteHit
			if h.Key, err = d.str(); err != nil {
				return err
			}
			if h.Prob, err = d.f64(); err != nil {
				return err
			}
			hits = append(hits, h)
		}
		resp.Hits = hits
	}
	nodes, err := d.varint()
	if err != nil {
		return err
	}
	resp.Nodes = int(nodes)
	edges, err := d.varint()
	if err != nil {
		return err
	}
	resp.Edges = int(edges)
	if resp.Snapshot, err = d.rawBytes(); err != nil {
		return err
	}
	if resp.Epoch, err = d.uvarint(); err != nil {
		return err
	}
	codecField, err := d.varint()
	if err != nil {
		return err
	}
	resp.Codec = int(codecField)
	ndhits, err := d.count(10)
	if err != nil {
		return err
	}
	if ndhits > 0 {
		dhits := make([]RemoteHit, 0, min(ndhits, sliceCap))
		prev := ""
		for i := 0; i < ndhits; i++ {
			var h RemoteHit
			if h.Key, err = d.frontStr(prev); err != nil {
				return err
			}
			if h.Prob, err = d.f64(); err != nil {
				return err
			}
			dhits = append(dhits, h)
			prev = h.Key
		}
		resp.DHits = dhits
	}
	if flags&flagSegments != 0 {
		if resp.Segs, err = d.segs(segmentedLen(ndhits, nhits)); err != nil {
			return err
		}
	}
	if d.off != len(d.s) {
		return errTrailingBytes
	}
	return nil
}
