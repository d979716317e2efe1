package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"quepa/internal/core"
	"quepa/internal/resilience"
	"quepa/internal/telemetry"
)

// ErrClosed is returned by requests issued after Close.
var ErrClosed = errors.New("wire: client closed")

// errConnBroken marks an attempt that raced a connection's death between
// pick-up and registration; it is transient, so the retry loop redials.
var errConnBroken = errors.New("wire: connection broken")

// remoteError is a reply the server produced deliberately: the round trip
// itself succeeded, so retrying would just replay the same failure.
type remoteError struct{ msg string }

func (e *remoteError) Error() string { return "wire: remote error: " + e.msg }

// Client is a core.Store backed by a remote wire server. Requests are
// multiplexed: each of the PoolSize TCP connections carries any number of
// in-flight frames tagged with IDs, demuxed by a per-connection reader, so
// concurrent augmenter goroutines share connections instead of convoying on
// a checkout pool. Concurrent Gets against one collection additionally
// aggregate into single getbatch frames (see groupGet). Transport failures
// of idempotent ops are retried per logical request under the RetryPolicy.
type Client struct {
	addr        string
	name        string
	kind        core.StoreKind
	collections []string
	roundTrips  atomic.Uint64 // logical requests issued by callers
	frames      atomic.Uint64 // physical request frames written
	retries     atomic.Uint64
	nextID      atomic.Uint64
	closed      atomic.Bool
	retrier     *resilience.Retrier

	poolSize int
	rr       atomic.Uint64 // round-robin cursor over conns
	connMu   sync.Mutex
	conns    []*muxConn // lazily dialed; slots replaced when dead

	gmu       sync.Mutex
	getQueues map[string]*getQueue // natural get-batching, keyed by collection
}

// DefaultPoolSize is the connection cap used when ClientConfig.PoolSize is
// zero. Multiplexing means a few connections go a long way; the default
// mainly spreads demux work across readers.
const DefaultPoolSize = 16

// ClientConfig tunes a Client's resilience and connection behaviour.
type ClientConfig struct {
	// Retry governs transport-failure retries and per-attempt deadlines. The
	// zero value selects resilience defaults; MaxAttempts 1 disables retries.
	Retry resilience.RetryPolicy
	// PoolSize caps the multiplexed TCP connections requests are spread
	// over. Every connection carries any number of in-flight frames, so this
	// trades demux parallelism against file descriptors. 0 selects
	// DefaultPoolSize.
	PoolSize int
}

// Dial connects to a wire server with the default configuration.
func Dial(addr string) (*Client, error) {
	return DialConfig(addr, ClientConfig{Retry: resilience.DefaultRetryPolicy()})
}

// DialConfig connects to a wire server and fetches the store's metadata.
func DialConfig(addr string, cfg ClientConfig) (*Client, error) {
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = DefaultPoolSize
	}
	c := &Client{
		addr:      addr,
		poolSize:  cfg.PoolSize,
		conns:     make([]*muxConn, cfg.PoolSize),
		retrier:   resilience.NewRetrier(cfg.Retry),
		getQueues: map[string]*getQueue{},
	}
	resp, err := c.roundTrip(context.Background(), request{Op: opMeta})
	if err != nil {
		return nil, fmt.Errorf("wire: dialing %s: %w", addr, err)
	}
	c.name = resp.Name
	c.kind = core.StoreKind(resp.Kind)
	c.collections = resp.Collections
	return c, nil
}

// SetSleep overrides the backoff sleeper (tests inject a recorder).
func (c *Client) SetSleep(fn func(time.Duration)) { c.retrier.SetSleep(fn) }

// Close tears down the connections and fails further requests fast with
// ErrClosed. In-flight requests fail with ErrClosed too (not transient, so
// they do not retry); callers racing Close see a clean, final error.
func (c *Client) Close() {
	c.closed.Store(true)
	c.connMu.Lock()
	conns := make([]*muxConn, 0, len(c.conns))
	for i, mc := range c.conns {
		if mc != nil {
			conns = append(conns, mc)
			c.conns[i] = nil
		}
	}
	c.connMu.Unlock()
	for _, mc := range conns {
		mc.kill(ErrClosed)
	}
}

// Name returns the remote store's name.
func (c *Client) Name() string { return c.name }

// Kind returns the remote store's kind.
func (c *Client) Kind() core.StoreKind { return c.kind }

// Collections returns the remote store's collections as of Dial time.
func (c *Client) Collections() []string { return c.collections }

// RoundTrips returns the number of logical requests issued by this client's
// callers. With multiplexed batching several logical requests may share one
// frame; Frames reports the physical count.
func (c *Client) RoundTrips() uint64 { return c.roundTrips.Load() }

// Frames returns the number of request frames actually written to the wire.
func (c *Client) Frames() uint64 { return c.frames.Load() }

// Retries returns the number of attempts beyond the first across all
// requests.
func (c *Client) Retries() uint64 { return c.retries.Load() }

// conn picks the next connection round-robin, dialing a replacement when the
// slot is empty or its connection has died.
func (c *Client) conn() (*muxConn, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	i := int(c.rr.Add(1) % uint64(c.poolSize))
	c.connMu.Lock()
	if mc := c.conns[i]; mc != nil && !mc.isDead() {
		c.connMu.Unlock()
		return mc, nil
	}
	c.connMu.Unlock()
	nc, err := net.Dial("tcp", c.addr)
	if err != nil {
		return nil, err
	}
	mc := newMuxConn(nc, c.retrier.Policy().AttemptTimeout)
	c.connMu.Lock()
	if c.closed.Load() {
		c.connMu.Unlock()
		mc.kill(ErrClosed)
		return nil, ErrClosed
	}
	if old := c.conns[i]; old != nil && !old.isDead() {
		// Another goroutine repaired the slot first; ride its connection.
		c.connMu.Unlock()
		mc.kill(errConnBroken)
		return old, nil
	}
	c.conns[i] = mc
	c.connMu.Unlock()
	return mc, nil
}

// retryableOp marks the idempotent ops: a replayed read returns the same
// answer, so a transport failure is safe to retry. The cluster ops qualify
// too — a frontier expansion and a snapshot fetch are pure reads.
func retryableOp(op string) bool {
	switch op {
	case opMeta, opGet, opGetBatch, opQuery, opKeyField, opReach, opSnapshot:
		return true
	}
	return false
}

// transient reports whether a round-trip failure may clear on a fresh
// connection. Remote errors are deliberate replies; a closed client stays
// closed; an oversized frame is the same size on every attempt, so retrying
// it can never succeed.
func transient(err error) bool {
	var re *remoteError
	return err != nil && !errors.As(err, &re) &&
		!errors.Is(err, ErrClosed) && !errors.Is(err, ErrFrameTooLarge)
}

func (c *Client) roundTrip(ctx context.Context, req request) (response, error) {
	c.roundTrips.Add(1)
	start := telemetry.Now()
	// Trace only when the caller is already inside a span: the hot path with
	// tracing disabled (or an untraced caller) takes zero extra allocations.
	var sp *telemetry.Span
	sctx := ctx
	if telemetry.SpanFromContext(ctx) != nil {
		sctx, sp = telemetry.StartSpan(ctx, "wire."+req.Op)
		sp.SetAttr("store", c.name)
		req.Trace = sp.TraceParent()
	}
	resp, sent, received, err := c.attempt(req)
	if err != nil && retryableOp(req.Op) {
		// Inlined retry loop (rather than Retrier.Do) so the no-fault path
		// above stays allocation-free: no closure, no context wrapping.
		for attempt := 1; attempt < c.retrier.Policy().MaxAttempts && transient(err) && ctx.Err() == nil; attempt++ {
			d := c.retrier.Backoff(attempt)
			c.retries.Add(1)
			clientRetries[req.Op].Inc()
			c.retrier.Sleep(d)
			var rsp *telemetry.Span
			if sp != nil {
				sp.Mark(telemetry.FlagRetry)
				_, rsp = telemetry.StartSpan(sctx, "wire.retry")
				c.tagRetry(rsp, req.Op, attempt, d, err)
				// The server segment of a retried attempt hangs off the
				// attempt span, so the trace shows which attempt paid.
				req.Trace = rsp.TraceParent()
			}
			var s, r int
			resp, s, r, err = c.attempt(req)
			if rsp != nil {
				if err != nil {
					rsp.SetAttr("error", err.Error())
				}
				rsp.AddBytes(int64(s), int64(r))
				rsp.End()
			}
			sent += s
			received += r
		}
	}
	clientHists[req.Op].Since(start)
	if sent > 0 || received > 0 {
		clientBytesOut[req.Op].Add(uint64(sent))
		clientBytesIn[req.Op].Add(uint64(received))
	}
	if err != nil {
		if ec := clientErrs[req.Op]; ec != nil {
			ec.Inc()
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			clientTimeouts[req.Op].Inc()
		}
	}
	if sp != nil {
		sp.AddBytes(int64(sent), int64(received))
		if err != nil {
			sp.Mark(telemetry.FlagError)
			sp.SetAttr("error", err.Error())
		}
		sp.End()
	}
	return resp, err
}

// tagRetry labels a wire.retry span: the store and op, the attempt that
// failed, the error that failed it (cause) and the backoff chosen before the
// next attempt.
func (c *Client) tagRetry(sp *telemetry.Span, op string, attempt int, backoff time.Duration, cause error) {
	sp.SetAttr("store", c.name)
	sp.SetAttr("op", op)
	sp.SetAttr("attempt", strconv.Itoa(attempt))
	sp.SetAttr("cause", cause.Error())
	sp.SetAttr("backoff_ms", strconv.FormatFloat(float64(backoff.Nanoseconds())/1e6, 'f', -1, 64))
}

// attempt performs one physical round trip: tag the request with a fresh
// frame ID, register a waiter, write the frame on a multiplexed connection
// and block until the demux reader delivers the matching response (or the
// connection dies — the liveness watchdog bounds the wait when the policy
// sets an AttemptTimeout).
func (c *Client) attempt(req request) (response, int, int, error) {
	mc, err := c.conn()
	if err != nil {
		return response{}, 0, 0, err
	}
	id := c.nextID.Add(1)
	req.ID = id
	ch := getWireChan()
	if !mc.register(id, ch) {
		putWireChan(ch)
		if c.closed.Load() {
			return response{}, 0, 0, ErrClosed
		}
		return response{}, 0, 0, errConnBroken
	}
	sent, err := mc.send(req)
	if err != nil {
		if errors.Is(err, ErrFrameTooLarge) {
			// The frame never hit the wire and the connection is intact; only
			// this waiter needs unwinding. Non-retryable by construction.
			mc.unregister(id)
			putWireChan(ch)
			return response{}, 0, 0, err
		}
		// send killed the connection; every waiter, ours included, has been
		// failed. Drain our delivery so the channel can be recycled.
		<-ch
		putWireChan(ch)
		if c.closed.Load() {
			err = ErrClosed
		}
		return response{}, sent, 0, err
	}
	c.frames.Add(1)
	if fc := clientFrames[req.Op]; fc != nil {
		fc.Inc()
	}
	r := <-ch
	putWireChan(ch)
	if r.err != nil {
		if c.closed.Load() {
			r.err = ErrClosed
		}
		return response{}, sent, r.received, r.err
	}
	if r.resp.Error != "" {
		return response{}, sent, r.received, &remoteError{msg: r.resp.Error}
	}
	return r.resp, sent, r.received, nil
}

// wireResult is one demuxed delivery: the matched response or the error that
// killed its connection.
type wireResult struct {
	resp     response
	received int
	err      error
}

// wireChans recycles waiter channels so the per-attempt rendezvous does not
// allocate in steady state. A channel is recycled only by the goroutine that
// consumed its single delivery, so a pooled channel is always empty.
var wireChans = sync.Pool{New: func() any { return make(chan wireResult, 1) }}

func getWireChan() chan wireResult   { return wireChans.Get().(chan wireResult) }
func putWireChan(ch chan wireResult) { wireChans.Put(ch) }

// muxConn is one multiplexed connection: a write mutex serializes outgoing
// frames, a reader goroutine demuxes responses to waiters by frame ID, and a
// read-deadline watchdog (armed whenever frames are in flight) converts a
// stalled server into a timeout that fails all in-flight requests so each
// can retry on a fresh connection — the mux equivalent of the old
// per-attempt SetDeadline.
type muxConn struct {
	c       net.Conn
	timeout time.Duration // liveness watchdog; 0 disables

	wmu sync.Mutex // serializes writeFrame

	mu      sync.Mutex
	pending map[uint64]chan wireResult
	dead    bool
}

func newMuxConn(c net.Conn, timeout time.Duration) *muxConn {
	mc := &muxConn{c: c, timeout: timeout, pending: map[uint64]chan wireResult{}}
	go mc.readLoop()
	return mc
}

func (mc *muxConn) isDead() bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.dead
}

// register parks a waiter for frame id and arms the watchdog. It reports
// false when the connection died first (the caller redials).
func (mc *muxConn) register(id uint64, ch chan wireResult) bool {
	mc.mu.Lock()
	if mc.dead {
		mc.mu.Unlock()
		return false
	}
	mc.pending[id] = ch
	if mc.timeout > 0 {
		mc.c.SetReadDeadline(time.Now().Add(mc.timeout))
	}
	mc.mu.Unlock()
	return true
}

// send writes one frame. A write failure kills the connection (failing every
// in-flight waiter, the caller's included) — except a size violation, which
// is detected before any bytes hit the wire and leaves the connection usable
// for everyone else.
func (mc *muxConn) send(req request) (int, error) {
	mc.wmu.Lock()
	n, err := writeRequestFrame(mc.c, &req)
	mc.wmu.Unlock()
	if err != nil && !errors.Is(err, ErrFrameTooLarge) {
		mc.kill(err)
	}
	return n, err
}

// unregister withdraws a waiter whose frame never reached the wire, disarming
// the watchdog if it was the only one in flight.
func (mc *muxConn) unregister(id uint64) {
	mc.mu.Lock()
	delete(mc.pending, id)
	if mc.timeout > 0 && !mc.dead && len(mc.pending) == 0 {
		mc.c.SetReadDeadline(time.Time{})
	}
	mc.mu.Unlock()
}

// kill closes the connection and fails every in-flight waiter with err.
// Idempotent; later deliveries find no waiters and are dropped.
func (mc *muxConn) kill(err error) {
	mc.mu.Lock()
	if mc.dead {
		mc.mu.Unlock()
		return
	}
	mc.dead = true
	pending := mc.pending
	mc.pending = nil
	mc.mu.Unlock()
	mc.c.Close()
	for _, ch := range pending {
		ch <- wireResult{err: err}
	}
}

// readLoop demuxes response frames to their waiters until the connection
// dies. After each delivery the watchdog is re-armed while frames remain in
// flight and disarmed when the connection goes idle, under the same mutex
// registration uses so the two can never disagree.
func (mc *muxConn) readLoop() {
	for {
		var resp response
		n, err := readResponseFrame(mc.c, &resp)
		if err != nil {
			mc.kill(err)
			return
		}
		mc.mu.Lock()
		ch, ok := mc.pending[resp.ID]
		if ok {
			delete(mc.pending, resp.ID)
		}
		if mc.timeout > 0 && !mc.dead {
			if len(mc.pending) > 0 {
				mc.c.SetReadDeadline(time.Now().Add(mc.timeout))
			} else {
				mc.c.SetReadDeadline(time.Time{})
			}
		}
		mc.mu.Unlock()
		if ok {
			ch <- wireResult{resp: resp, received: n}
		}
		// A response with no waiter (an abandoned request) is dropped; the
		// watchdog or the caller's retry handles the fallout.
	}
}

// getQueue is the natural-batching state of one collection: whether a get
// flight is in the air, and the waiters that arrived while it was.
type getQueue struct {
	busy    bool
	waiters []*getWaiter
}

// getWaiter is one logical Get waiting to fly or to be served by a flight.
type getWaiter struct {
	key string
	ch  chan getOutcome // buffered (1): flights never block on delivery
}

// getOutcome is what a waiter receives: its object (or authoritative
// absence), a flight failure to retry, or — batch non-nil — leadership of
// the next flight, drained queue attached. Served members also receive the
// identity of the leader's flight span so their own trace links to the frame
// that actually carried their answer.
type getOutcome struct {
	obj   core.Object
	found bool
	err   error
	batch []*getWaiter

	ltid telemetry.TraceID // leader flight span identity (zero when untraced)
	lsid telemetry.SpanID
}

// submitGet enrolls w for collection. When no flight is in the air the
// caller becomes leader of a solo flight; otherwise it queues behind the
// current one and will be batched into the next.
func (c *Client) submitGet(collection string, w *getWaiter) (lead bool, batch []*getWaiter) {
	c.gmu.Lock()
	q := c.getQueues[collection]
	if q == nil {
		q = &getQueue{}
		c.getQueues[collection] = q
	}
	if !q.busy {
		q.busy = true
		c.gmu.Unlock()
		return true, []*getWaiter{w}
	}
	q.waiters = append(q.waiters, w)
	c.gmu.Unlock()
	return false, nil
}

// releaseGetLeadership ends a flight: if waiters queued up behind it they
// become the next batch, leadership handed to the first of them; otherwise
// the collection goes idle.
func (c *Client) releaseGetLeadership(collection string) {
	c.gmu.Lock()
	q := c.getQueues[collection]
	if len(q.waiters) == 0 {
		q.busy = false
		c.gmu.Unlock()
		return
	}
	batch := q.waiters
	q.waiters = nil
	c.gmu.Unlock()
	batch[0].ch <- getOutcome{batch: batch}
}

// abandonGet withdraws w (caller's context died) and reports whether it was
// still queued. False means a flight already drained it: a delivery — maybe
// a leadership handover — is imminent on w.ch and must be consumed.
func (c *Client) abandonGet(collection string, w *getWaiter) bool {
	c.gmu.Lock()
	defer c.gmu.Unlock()
	q := c.getQueues[collection]
	for i, m := range q.waiters {
		if m == w {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// flyGetBatch performs one flight for the batch (batch[0] is the caller):
// one get frame for a single key, one getbatch frame for several. The
// results are distributed to every member; leadership is released first so
// the next batch takes off while this one fans out. A member whose key came
// back empty gets an authoritative not-found, mirroring solo-get semantics.
func (c *Client) flyGetBatch(ctx context.Context, collection string, batch []*getWaiter) getOutcome {
	var req request
	if len(batch) == 1 {
		req = request{Op: opGet, Collection: collection, Key: batch[0].key}
	} else {
		keys := make([]string, 0, len(batch))
		seen := make(map[string]struct{}, len(batch))
		for _, m := range batch {
			if _, dup := seen[m.key]; !dup {
				seen[m.key] = struct{}{}
				keys = append(keys, m.key)
			}
		}
		if len(keys) == 1 {
			req = request{Op: opGet, Collection: collection, Key: keys[0]}
		} else {
			req = request{Op: opGetBatch, Collection: collection, Keys: keys}
		}
	}
	// The leader's flight span covers the shared frame; members that were
	// served by it link to this span from their own traces.
	var sp *telemetry.Span
	if telemetry.SpanFromContext(ctx) != nil {
		_, sp = telemetry.StartSpan(ctx, "wire."+req.Op)
		sp.SetAttr("store", c.name)
		sp.SetAttr("collection", collection)
		if len(batch) > 1 {
			sp.SetAttr("batched", strconv.Itoa(len(batch)))
		}
		req.Trace = sp.TraceParent()
	}
	resp, sent, received, err := c.attempt(req)
	if sp != nil {
		sp.AddBytes(int64(sent), int64(received))
		if err != nil {
			sp.Mark(telemetry.FlagError)
			sp.SetAttr("error", err.Error())
		}
		sp.End()
	}
	c.releaseGetLeadership(collection)

	var found map[string]core.Object
	if err == nil && req.Op == opGetBatch {
		found = make(map[string]core.Object, len(resp.Objects))
		for _, wo := range resp.Objects {
			found[wo.Key] = fromWire(wo)
		}
	}
	ltid, lsid := sp.TraceID(), sp.SpanID()
	outcomeFor := func(m *getWaiter) getOutcome {
		if err != nil {
			return getOutcome{err: err, ltid: ltid, lsid: lsid}
		}
		if req.Op == opGet {
			if resp.NotFound || len(resp.Objects) == 0 {
				return getOutcome{ltid: ltid, lsid: lsid}
			}
			return getOutcome{obj: fromWire(resp.Objects[0]), found: true, ltid: ltid, lsid: lsid}
		}
		obj, ok := found[m.key]
		return getOutcome{obj: obj, found: ok, ltid: ltid, lsid: lsid}
	}
	for _, m := range batch[1:] {
		m.ch <- outcomeFor(m)
	}
	return outcomeFor(batch[0])
}

// groupGet resolves one logical Get through the natural-batching machinery,
// retrying transport failures per logical request (each member of a failed
// batch re-submits under its own retry budget, so the PR-level retry,
// breaker and deadline semantics hold per request, not per frame). A leader
// whose own context died still flies its batch — bounded by the attempt
// watchdog — so innocent members are not poisoned, then returns its own
// context error.
func (c *Client) groupGet(ctx context.Context, collection, key string) (core.Object, bool, error) {
	w := &getWaiter{key: key, ch: make(chan getOutcome, 1)}
	for attempt := 0; ; attempt++ {
		var out getOutcome
		if lead, batch := c.submitGet(collection, w); lead {
			out = c.flyGetBatch(ctx, collection, batch)
		} else {
			select {
			case r := <-w.ch:
				if r.batch != nil {
					out = c.flyGetBatch(ctx, collection, r.batch)
				} else {
					out = r
					// Served by another goroutine's flight: link our span to
					// the leader's flight span so the shared frame is visible
					// from this trace too.
					if r.lsid != 0 {
						telemetry.SpanFromContext(ctx).AddLink(r.ltid, r.lsid)
					}
				}
			case <-ctx.Done():
				if c.abandonGet(collection, w) {
					return core.Object{}, false, ctx.Err()
				}
				if r := <-w.ch; r.batch != nil {
					c.flyGetBatch(ctx, collection, r.batch)
				}
				return core.Object{}, false, ctx.Err()
			}
		}
		if out.err == nil {
			return out.obj, out.found, nil
		}
		if attempt+1 >= c.retrier.Policy().MaxAttempts || !transient(out.err) || ctx.Err() != nil {
			return core.Object{}, false, out.err
		}
		d := c.retrier.Backoff(attempt + 1)
		if psp := telemetry.SpanFromContext(ctx); psp != nil {
			psp.Mark(telemetry.FlagRetry)
			_, rsp := telemetry.StartSpan(ctx, "wire.retry")
			c.tagRetry(rsp, opGet, attempt+1, d, out.err)
			c.retries.Add(1)
			clientRetries[opGet].Inc()
			c.retrier.Sleep(d)
			rsp.End()
			continue
		}
		c.retries.Add(1)
		clientRetries[opGet].Inc()
		c.retrier.Sleep(d)
	}
}

// Get retrieves one object from the remote store. Concurrent Gets against
// the same collection aggregate into shared getbatch frames.
func (c *Client) Get(ctx context.Context, collection, key string) (core.Object, error) {
	if err := ctx.Err(); err != nil {
		return core.Object{}, err
	}
	c.roundTrips.Add(1)
	start := telemetry.Now()
	obj, found, err := c.groupGet(ctx, collection, key)
	clientHists[opGet].Since(start)
	if err != nil {
		clientErrs[opGet].Inc()
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			clientTimeouts[opGet].Inc()
		}
		return core.Object{}, err
	}
	if !found {
		return core.Object{}, fmt.Errorf("%s.%s.%s: %w", c.name, collection, key, core.ErrNotFound)
	}
	return obj, nil
}

// GetBatch retrieves many objects in one remote round trip.
func (c *Client) GetBatch(ctx context.Context, collection string, keys []string) ([]core.Object, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp, err := c.roundTrip(ctx, request{Op: opGetBatch, Collection: collection, Keys: keys})
	if err != nil {
		return nil, err
	}
	out := make([]core.Object, len(resp.Objects))
	for i, w := range resp.Objects {
		out[i] = fromWire(w)
	}
	return out, nil
}

// KeyField resolves the identifier field of a remote collection, so the
// augmentation validator can rewrite queries against wire-backed stores. The
// caller's context bounds the round trip like any data operation.
func (c *Client) KeyField(ctx context.Context, collection string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	resp, err := c.roundTrip(ctx, request{Op: opKeyField, Collection: collection})
	if err != nil {
		return "", err
	}
	return resp.KeyField, nil
}

// ExpandFrontier asks the peer to expand a weighted key frontier one hop
// over its A' shard — the scatter leg of a distributed Reach. keys and probs
// are parallel; the returned hits carry the accumulated path probabilities.
// A non-nil segs splits the frontier into runs the peer expands independently
// (one per origin of a many-origin traversal); the returned run lengths split
// the hits the same way, and a response segmented differently from the
// request is rejected.
func (c *Client) ExpandFrontier(ctx context.Context, keys []string, probs []float64, segs []int) ([]RemoteHit, []int, ReachInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, ReachInfo{}, err
	}
	resp, err := c.roundTrip(ctx, request{Op: opReach, Keys: keys, Probs: probs, Segs: segs})
	if err != nil {
		return nil, nil, ReachInfo{}, err
	}
	// A peer that merges the runs into one hit list must fail the leg: handing
	// one origin another's hits would be a wrong answer, not a degraded one.
	if len(resp.Segs) != len(segs) {
		return nil, nil, ReachInfo{}, fmt.Errorf("wire: %s answered %d reach segments with %d", c.name, len(segs), len(resp.Segs))
	}
	return resp.Hits, resp.Segs, ReachInfo{Nodes: resp.Nodes, Edges: resp.Edges}, nil
}

// FetchSnapshot downloads the peer's epoch-stamped A' shard checkpoint, the
// bootstrap/rebalance payload a joining node loads with aindex.ReadSnapshot.
func (c *Client) FetchSnapshot(ctx context.Context) ([]byte, uint64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	resp, err := c.roundTrip(ctx, request{Op: opSnapshot})
	if err != nil {
		return nil, 0, err
	}
	return resp.Snapshot, resp.Epoch, nil
}

// Query executes a native-language query on the remote store.
func (c *Client) Query(ctx context.Context, query string) ([]core.Object, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp, err := c.roundTrip(ctx, request{Op: opQuery, Query: query})
	if err != nil {
		return nil, err
	}
	out := make([]core.Object, len(resp.Objects))
	for i, w := range resp.Objects {
		out[i] = fromWire(w)
	}
	return out, nil
}
