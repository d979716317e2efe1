package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"quepa/internal/augment"
	"quepa/internal/core"
)

// loadClients is fixed at 2 so machines compare: one process, two closed-loop
// clients, two keep-alive connections.
const loadClients = 2

// link is one ranked element of an answer as both sides of the check phase
// see it: the server's JSON and the reference's AugmentedObject reduce to it.
type link struct {
	Key  string  `json:"key"`
	Prob float64 `json:"prob"`
	Dist int     `json:"dist"`
}

// response is the union of the JSON bodies the benchmark reads.
type response struct {
	Original  []link          `json:"original"`
	Augmented []link          `json:"augmented"`
	Objects   []link          `json:"objects"`
	Links     []link          `json:"links"`
	Session   string          `json:"session"`
	Promoted  bool            `json:"promoted"`
	Path      []string        `json:"path"`
	Degraded  json.RawMessage `json:"degraded"`
}

// degradedMarker is how a top-level "degraded" key looks in the server's
// two-space-indented JSON; deeper keys are indented further, so scanning for
// it is exact and far cheaper than parsing 70 KB bodies in the load loop.
var degradedMarker = []byte("\n  \"degraded\":")

// client is one closed-loop HTTP/1.1 client on one keep-alive connection. It
// writes the request and parses the response on the calling goroutine — no
// transport goroutines, no hand-offs — so the generator's own scheduling
// adds as little as it can to the latency it records.
type client struct {
	host string // 127.0.0.1:port
	conn net.Conn
	br   *bufio.Reader
	out  []byte // request under construction
	body bytes.Buffer

	attempted, failed int
	bytesRead         int64
	samples           []sample
	firstFailure      string

	// epoch is what sample.at counts from: the start of the load phase.
	epoch time.Time
}

// What a timed request was, for the latency tables.
const (
	reqSearch uint8 = iota
	reqStep
	reqOther // /explore and /explore/finish: counted, not tabulated
)

// sample is one completed request: when it completed, how long it took.
type sample struct {
	at   float64 // seconds since the phase began
	ms   float64
	kind uint8
}

func newClient(base string) *client {
	return &client{host: strings.TrimPrefix(base, "http://"), epoch: time.Now()}
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

func (c *client) fail(format string, args ...any) {
	c.failed++
	if c.firstFailure == "" {
		c.firstFailure = fmt.Sprintf(format, args...)
	}
}

// roundTrip writes one request on the keep-alive connection (dialing it on
// first use) and reads the response into c.body.
func (c *client) roundTrip(method, path string) (status int, err error) {
	if c.conn == nil {
		if c.conn, err = net.Dial("tcp", c.host); err != nil {
			return 0, err
		}
		c.br = bufio.NewReaderSize(c.conn, 64<<10)
	}
	c.out = append(c.out[:0], method...)
	c.out = append(c.out, ' ')
	c.out = append(c.out, path...)
	c.out = append(c.out, " HTTP/1.1\r\nHost: "...)
	c.out = append(c.out, c.host...)
	c.out = append(c.out, "\r\n\r\n"...)
	if _, err = c.conn.Write(c.out); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, err
	}
	c.body.Reset()
	_, err = io.Copy(&c.body, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// do sends one request, reads the whole body and classifies the outcome: a
// transport error, a non-200, an empty body or a degraded answer is a
// failure. The body is valid until the next call.
func (c *client) do(method, path string, kind uint8) ([]byte, bool) {
	c.attempted++
	start := time.Now()
	status, err := c.roundTrip(method, path)
	end := time.Now()
	if err != nil {
		// The connection's state is unknown; the next request dials anew.
		c.close()
		c.fail("%s %s: %v", method, path, err)
		return nil, false
	}
	c.samples = append(c.samples, sample{at: end.Sub(c.epoch).Seconds(), ms: float64(end.Sub(start).Nanoseconds()) / 1e6, kind: kind})
	body := c.body.Bytes()
	c.bytesRead += int64(len(body))
	switch {
	case status != http.StatusOK:
		c.fail("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(body))
	case len(body) == 0:
		c.fail("%s %s: empty body", method, path)
	case bytes.Contains(body, degradedMarker):
		c.fail("%s %s: degraded answer", method, path)
	default:
		return body, true
	}
	return body, false
}

// doJSON is do plus decoding, for the small bodies the benchmark must read.
func (c *client) doJSON(method, path string, kind uint8) (response, bool) {
	var r response
	body, ok := c.do(method, path, kind)
	if !ok {
		return r, false
	}
	if err := json.Unmarshal(body, &r); err != nil {
		c.fail("%s %s: %v", method, path, err)
		return r, false
	}
	return r, true
}

// sessionDriver is one way of running an exploration session: over HTTP
// against the server, or in-process against the reference stack.
type sessionDriver interface {
	start(o op) (keys []string, err error)
	step(key string) ([]link, error)
	finish() (promoted bool, path []string, err error)
}

// sessionTrace is everything a session returned, for the check phase.
type sessionTrace struct {
	Start    []string
	Steps    [][]link
	Promoted bool
	Path     []string
}

// walkSession runs one exploration session: start, sessionSteps steps
// chosen by chooseLink, finish.
func walkSession(seed int64, o op, d sessionDriver) (sessionTrace, error) {
	var tr sessionTrace
	var err error
	if tr.Start, err = d.start(o); err != nil {
		return tr, err
	}
	if len(tr.Start) == 0 {
		return tr, fmt.Errorf("session %q: empty start result", o.Query)
	}
	key := tr.Start[0]
	var path []string
	for i := 0; i < sessionSteps && key != ""; i++ {
		links, err := d.step(key)
		if err != nil {
			return tr, err
		}
		tr.Steps = append(tr.Steps, links)
		path = append(path, key)
		keys := make([]string, len(links))
		for j, l := range links {
			keys[j] = l.Key
		}
		key = chooseLink(seed, key, keys, path)
	}
	tr.Promoted, tr.Path, err = d.finish()
	return tr, err
}

// httpSession drives a session through a client.
type httpSession struct {
	c  *client
	id string
}

var errRequestFailed = fmt.Errorf("request failed")

func (h *httpSession) start(o op) ([]string, error) {
	r, ok := h.c.doJSON(http.MethodPost, o.explorePath(), reqOther)
	if !ok {
		return nil, errRequestFailed
	}
	h.id = r.Session
	keys := make([]string, len(r.Objects))
	for i, o := range r.Objects {
		keys[i] = o.Key
	}
	return keys, nil
}

func (h *httpSession) step(key string) ([]link, error) {
	r, ok := h.c.doJSON(http.MethodPost, "/explore/step?session="+h.id+"&key="+url.QueryEscape(key), reqStep)
	if !ok {
		return nil, errRequestFailed
	}
	return r.Links, nil
}

func (h *httpSession) finish() (bool, []string, error) {
	r, ok := h.c.doJSON(http.MethodPost, "/explore/finish?session="+h.id, reqOther)
	if !ok {
		return false, nil, errRequestFailed
	}
	return r.Promoted, r.Path, nil
}

// stackSession drives a session on the reference stack.
type stackSession struct {
	s    *stack
	sess *augment.Exploration
}

func (r *stackSession) start(o op) ([]string, error) {
	sess, objs, err := r.s.aug.Explore(context.Background(), o.DB, o.Query, r.s.tracker)
	if err != nil {
		return nil, err
	}
	r.sess = sess
	keys := make([]string, len(objs))
	for i, o := range objs {
		keys[i] = o.GK.String()
	}
	return keys, nil
}

func (r *stackSession) step(key string) ([]link, error) {
	gk, err := core.ParseGlobalKey(key)
	if err != nil {
		return nil, err
	}
	aos, err := r.sess.Step(context.Background(), gk)
	if err != nil {
		return nil, err
	}
	return toLinks(aos), nil
}

func (r *stackSession) finish() (bool, []string, error) {
	promoted := r.sess.Finish()
	path := r.sess.Path()
	keys := make([]string, len(path))
	for i, gk := range path {
		keys[i] = gk.String()
	}
	return promoted, keys, nil
}

func toLinks(aos []augment.AugmentedObject) []link {
	out := make([]link, len(aos))
	for i, ao := range aos {
		out[i] = link{Key: ao.Object.GK.String(), Prob: ao.Prob, Dist: ao.Dist}
	}
	return out
}

// run executes one op; searches are not decoded.
func (c *client) run(seed int64, o op) {
	if o.Kind == opSession {
		// A failed request already counted itself; the rest of the session
		// cannot run without it.
		walkSession(seed, o, &httpSession{c: c}) //nolint:errcheck
		return
	}
	c.do(http.MethodGet, o.searchPath(), reqSearch)
}

// loadResult is what a closed-loop phase measured.
type loadResult struct {
	attempted, failed int
	bytesRead         int64
	wall              time.Duration
	samples           []sample // by completion time
	firstFailure      string
}

// latencies returns the ascending latencies of one kind of request among
// those completed in [from, to) seconds of the phase.
func (l loadResult) latencies(kind uint8, from, to float64) []float64 {
	var out []float64
	for _, s := range l.samples {
		if s.kind == kind && s.at >= from && s.at < to {
			out = append(out, s.ms)
		}
	}
	sort.Float64s(out)
	return out
}

// runLoad drives ops through n closed-loop clients, each on its own
// connection, handing out ops in stream order. It stops when the ops run out
// or limit (when positive) has elapsed; a client finishes the op it is in.
// tick, when non-nil, is called from its own goroutine at every whole second
// of the phase before limit, for sampling what changes while the load runs;
// the sample at the end of the phase is the caller's to take.
func runLoad(base string, ops []op, n int, seed int64, limit time.Duration, tick func(second int)) loadResult {
	clients := make([]*client, n)
	for i := range clients {
		clients[i] = newClient(base)
		defer clients[i].close()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	stopTicks := make(chan struct{})
	ticksDone := make(chan struct{})
	go func() {
		defer close(ticksDone)
		if tick == nil {
			return
		}
		for second := 1; limit <= 0 || time.Duration(second)*time.Second < limit; second++ {
			select {
			case <-stopTicks:
				return
			case <-time.After(time.Until(start.Add(time.Duration(second) * time.Second))):
				tick(second)
			}
		}
	}()
	for _, c := range clients {
		c.epoch = start
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) || (limit > 0 && time.Since(start) >= limit) {
					return
				}
				c.run(seed, ops[i])
			}
		}(c)
	}
	wg.Wait()
	res := loadResult{wall: time.Since(start)}
	close(stopTicks)
	<-ticksDone
	for _, c := range clients {
		res.attempted += c.attempted
		res.failed += c.failed
		res.bytesRead += c.bytesRead
		res.samples = append(res.samples, c.samples...)
		if res.firstFailure == "" {
			res.firstFailure = c.firstFailure
		}
	}
	sort.Slice(res.samples, func(i, j int) bool { return res.samples[i].at < res.samples[j].at })
	return res
}

// checkPhase sends the first checkRequests requests of the timed stream, one
// client, untimed, and verifies every answer against the reference stack:
// `original` keys equal in order, `augmented` equal as a set of
// (key, prob, dist) with exact floats, every exploration answer equal to what
// Exploration.Step/Finish return. It returns requests attempted and failed.
func checkPhase(target string, base *baseData, ops []op, seed int64) (attempted, failed int, firstFailure string, err error) {
	ref, err := newStack(base, oracleLayout, nil)
	if err != nil {
		return 0, 0, "", err
	}
	defer ref.close()
	c := newClient(target)
	defer c.close()
	mismatch := func(format string, args ...any) {
		failed++
		if firstFailure == "" {
			firstFailure = fmt.Sprintf(format, args...)
		}
	}
	for _, o := range head(ops, checkRequests) {
		if o.Kind == opSession {
			got, gerr := walkSession(seed, o, &httpSession{c: c})
			want, werr := walkSession(seed, o, &stackSession{s: ref})
			switch {
			case werr != nil:
				mismatch("reference session %q: %v", o.Query, werr)
			case gerr == nil && !reflect.DeepEqual(got, want):
				mismatch("session %q: server %+v, reference %+v", o.Query, got, want)
			}
			continue
		}
		r, ok := c.doJSON(http.MethodGet, o.searchPath(), reqSearch)
		answer, err := ref.search(context.Background(), o)
		switch {
		case err != nil:
			mismatch("reference search %q: %v", o.Query, err)
		case ok:
			if msg := compareSearch(r, answer); msg != "" {
				mismatch("search %q: %s", o.Query, msg)
			}
		}
	}
	if firstFailure == "" {
		firstFailure = c.firstFailure
	}
	return c.attempted, failed + c.failed, firstFailure, nil
}

// compareSearch returns "" when the server's answer equals the reference's.
func compareSearch(got response, want *augment.Answer) string {
	if len(got.Original) != len(want.Original) {
		return fmt.Sprintf("original: %d objects, reference %d", len(got.Original), len(want.Original))
	}
	for i, o := range want.Original {
		if got.Original[i].Key != o.GK.String() {
			return fmt.Sprintf("original[%d]: %s, reference %s", i, got.Original[i].Key, o.GK)
		}
	}
	g, w := append([]link(nil), got.Augmented...), toLinks(want.Rank(0, 0))
	byKey := func(ls []link) func(i, j int) bool { return func(i, j int) bool { return ls[i].Key < ls[j].Key } }
	sort.Slice(g, byKey(g))
	sort.Slice(w, byKey(w))
	if len(g) != len(w) {
		return fmt.Sprintf("augmented: %d objects, reference %d", len(g), len(w))
	}
	for i := range w {
		if g[i] != w[i] {
			return fmt.Sprintf("augmented: %+v, reference %+v", g[i], w[i])
		}
	}
	return ""
}
