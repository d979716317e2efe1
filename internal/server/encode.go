package server

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"quepa/internal/augment"
	"quepa/internal/core"
	"quepa/internal/explain"
)

// This file is the response encoder of the fixed-shape hot routes (/search,
// /object, /explore, /explore/step, /explore/finish). It appends the body in
// one pass, already indented, and its output is byte for byte what
// encoding/json's Encoder with SetIndent("", "  ") produces for the same
// answer held in a map[string]any: top-level and "fields" keys sorted,
// two-space indent, HTML-escaped strings, ES6-style floats, trailing newline.
// Clients and the ledger's failure detector (benchmark/load.go scans for a
// depth-1 "degraded" key) read that layout, so it is a contract. The Append
// functions are exported so the differential and fuzz tests beside the
// quepa-server command pin each body against encoding/json.

// bodyPool recycles response buffers; a warm encoder allocates nothing.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// rankedPool recycles /search's ranked answers: the augmenter appends into
// one, so a search does not allocate its []AugmentedObject. A new one is
// non-nil, so the augmenter never hands back a result-cache entry in its
// place (AppendSearch).
var rankedPool = sync.Pool{New: func() any {
	ranked := make([]augment.AugmentedObject, 0, 64)
	return &ranked
}}

// putRanked clears a ranked answer, so the pool keeps no object live, and
// recycles its storage in p.
func putRanked(p *[]augment.AugmentedObject, ranked []augment.AugmentedObject) {
	clear(ranked)
	*p = ranked[:0]
	rankedPool.Put(p)
}

// sendBody writes an encoded body as a 200 and recycles its buffer, which
// buf still owns: http.ResponseWriter.Write copies before returning. A failed
// Write means the client went away; there is nobody left to tell.
func sendBody(w http.ResponseWriter, buf *[]byte, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
	*buf = body[:0]
	bodyPool.Put(buf)
}

// AppendSearch encodes a /search answer. profile is nil unless the client
// asked for explain=1.
func AppendSearch(b []byte, original []core.Object, ranked []augment.AugmentedObject,
	degraded []augment.Degradation, profile *explain.Profile) ([]byte, error) {
	b = append(b, "{\n  \"augmented\": "...)
	b = appendAugmented(b, ranked)
	b = append(b, ',')
	b, err := appendSections(b, degraded, profile)
	if err != nil {
		return b, err
	}
	b = append(b, "\n  \"original\": "...)
	b = appendObjects(b, original)
	return append(b, "\n}\n"...), nil
}

// AppendStep encodes an /explore/step answer.
func AppendStep(b []byte, links []augment.AugmentedObject,
	degraded []augment.Degradation, profile *explain.Profile) ([]byte, error) {
	b = append(b, '{')
	b, err := appendSections(b, degraded, profile)
	if err != nil {
		return b, err
	}
	b = append(b, "\n  \"links\": "...)
	b = appendAugmented(b, links)
	return append(b, "\n}\n"...), nil
}

// AppendExploreStart encodes the /explore answer.
func AppendExploreStart(b []byte, session string, objects []core.Object) []byte {
	b = append(b, "{\n  \"objects\": "...)
	b = appendObjects(b, objects)
	b = append(b, ",\n  \"session\": \""...)
	b = appendEscaped(b, session)
	return append(b, "\"\n}\n"...)
}

// AppendExploreFinish encodes the /explore/finish answer.
func AppendExploreFinish(b []byte, promoted bool, path []core.GlobalKey) []byte {
	b = append(b, "{\n  \"path\": "...)
	b = appendArray(b, len(path), func(b []byte, i int) []byte { return appendKey(b, path[i]) })
	b = append(b, ",\n  \"promoted\": "...)
	b = strconv.AppendBool(b, promoted)
	return append(b, "\n}\n"...)
}

// AppendObjectLinks encodes the /object answer: the object and its
// p-relations. An object without neighbours has "links": null, as the nil
// slice of the old encoder did.
func AppendObjectLinks(b []byte, obj core.Object, rels []core.PRelation) []byte {
	b = append(b, "{\n  \"links\": "...)
	if len(rels) == 0 {
		b = append(b, "null"...)
	} else {
		b = appendArray(b, len(rels), func(b []byte, i int) []byte {
			b = append(b, "{\n      \"key\": "...)
			b = appendKey(b, rels[i].To)
			b = append(b, ",\n      \"type\": \""...)
			b = appendEscaped(b, rels[i].Type.String())
			b = append(b, "\",\n      \"prob\": "...)
			b = appendFloat(b, rels[i].Prob)
			return append(b, "\n    }"...)
		})
	}
	b = append(b, ",\n  \"object\": "...)
	b = appendObject(b, "\n  ", obj, 0, 0)
	return append(b, "\n}\n"...)
}

// appendSections splices in the rare struct-typed sections, "degraded" and
// "explain", each followed by a comma: on both routes that carry them a key
// that sorts later follows. They are small, so encoding/json renders them at
// depth 1 rather than a hand-written encoder per struct.
func appendSections(b []byte, degraded []augment.Degradation, profile *explain.Profile) ([]byte, error) {
	var err error
	if len(degraded) > 0 {
		if b, err = appendSection(b, "degraded", degraded); err != nil {
			return b, err
		}
	}
	if profile != nil {
		return appendSection(b, "explain", profile)
	}
	return b, nil
}

func appendSection(b []byte, name string, v any) ([]byte, error) {
	raw, err := json.MarshalIndent(v, "  ", "  ")
	if err != nil {
		return b, err
	}
	b = append(b, "\n  \""...)
	b = append(b, name...)
	b = append(b, "\": "...)
	b = append(b, raw...)
	return append(b, ','), nil
}

// appendArray encodes a depth-1 array of n elements, each rendered by elem
// at depth 2.
func appendArray(b []byte, n int, elem func(b []byte, i int) []byte) []byte {
	if n == 0 {
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    "...)
		b = elem(b, i)
	}
	return append(b, "\n  ]"...)
}

func appendObjects(b []byte, objs []core.Object) []byte {
	return appendArray(b, len(objs), func(b []byte, i int) []byte {
		return appendObject(b, "\n    ", objs[i], 0, 0)
	})
}

func appendAugmented(b []byte, aos []augment.AugmentedObject) []byte {
	return appendArray(b, len(aos), func(b []byte, i int) []byte {
		return appendObject(b, "\n    ", aos[i].Object, aos[i].Prob, aos[i].Dist)
	})
}

// appendObject encodes one data object at the current position; nl is a
// newline plus the indentation of the object's own braces. prob and dist are
// omitted when zero, a zero Fields is null and an empty one {}.
func appendObject(b []byte, nl string, o core.Object, prob float64, dist int) []byte {
	b = append(b, '{')
	b = append(b, nl...)
	b = append(b, "  \"key\": "...)
	b = appendKey(b, o.GK)
	b = append(b, ',')
	b = append(b, nl...)
	b = append(b, "  \"fields\": "...)
	switch n := o.Fields.Len(); {
	case o.Fields.IsZero():
		b = append(b, "null"...)
	case n == 0:
		b = append(b, "{}"...)
	default:
		// Fields are held sorted by name, the order encoding/json gives a map.
		b = append(b, '{')
		for i := 0; i < n; i++ {
			name, value := o.Fields.At(i)
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, nl...)
			b = append(b, "    \""...)
			b = appendEscaped(b, name)
			b = append(b, "\": \""...)
			b = appendEscaped(b, value)
			b = append(b, '"')
		}
		b = append(b, nl...)
		b = append(b, "  }"...)
	}
	if prob != 0 {
		b = append(b, ',')
		b = append(b, nl...)
		b = append(b, "  \"prob\": "...)
		b = appendFloat(b, prob)
	}
	if dist != 0 {
		b = append(b, ',')
		b = append(b, nl...)
		b = append(b, "  \"dist\": "...)
		b = strconv.AppendInt(b, int64(dist), 10)
	}
	b = append(b, nl...)
	return append(b, '}')
}

// appendKey encodes gk.String() as a JSON string without building it. The
// ASCII dots keep a truncated UTF-8 sequence in one component from joining
// bytes of the next, so escaping component-wise equals escaping the whole.
func appendKey(b []byte, gk core.GlobalKey) []byte {
	b = append(b, '"')
	b = appendEscaped(b, gk.Database)
	b = append(b, '.')
	b = appendEscaped(b, gk.Collection)
	b = append(b, '.')
	b = appendEscaped(b, gk.Key)
	return append(b, '"')
}

// jsonSafe marks the ASCII bytes encoding/json copies verbatim with HTML
// escaping on: everything printable but the quote, the backslash, <, > and &.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := byte(' '); c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// appendEscaped appends s as the inside of a JSON string, escaped exactly as
// encoding/json does: short escapes for quote, backslash, \b \f \n \r \t,
// \u00XX for other control bytes and <, >, &, \ufffd for invalid UTF-8, and
// U+2028/U+2029 escaped.
func appendEscaped(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(b, s[start:]...)
}

// appendFloat appends a finite f the way encoding/json does (ES6 number to
// string): 'f' format, or 'e' below 1e-6 and from 1e21 with a one-digit
// negative exponent unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
