package wire

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"

	"quepa/internal/core"
	"quepa/internal/telemetry"
)

// Server exposes one store over TCP. Create it with Serve and stop it with
// Close; every accepted connection is handled in its own goroutine and may
// carry any number of sequential requests.
type Server struct {
	store core.Store
	ln    net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Serve starts serving the store on the given address ("127.0.0.1:0" picks a
// free port; query it with Addr).
func Serve(store core.Store, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return ServeOn(store, ln), nil
}

// ServeOn serves the store on an already-bound listener. Cluster bring-up
// uses it to reserve every peer's port before any peer starts dialing, so a
// topology's addresses are known to all members ahead of time.
func ServeOn(store core.Store, ln net.Listener) *Server {
	s := &Server{store: store, ln: ln, conns: map[net.Conn]struct{}{}}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// ShardReacher is the optional store capability a wire server forwards for
// the reach op. A cluster shard node implements it; on a plain store the op
// fails with a remote error. ReachMany answers Reach(origin, level) for
// every origin over the store's A' shard: hits holds one run per origin, in
// origin order and key-sorted within a run, and segs holds the run lengths.
type ShardReacher interface {
	ReachMany(ctx context.Context, origins []string, level int) (hits []RemoteHit, segs []int, info ReachInfo, err error)
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting connections, closes the active ones and waits for
// the handlers to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// handle serves one connection. Every frame is dispatched in its own
// goroutine, responses serialized by a write mutex and tagged with the
// request's ID so the client can demux them out of order.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	var (
		wmu   sync.Mutex
		reqWG sync.WaitGroup
	)
	defer func() {
		reqWG.Wait() // let in-flight dispatches drain before the conn dies
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	for {
		var req request
		reqBytes, err := readRequestFrame(conn, &req)
		if err != nil {
			return // closed, corrupted or not this format: drop the connection
		}
		serverBytesIn.Add(uint64(reqBytes))
		reqWG.Add(1)
		go func(req request, reqBytes int) {
			defer reqWG.Done()
			ctx, sp := s.continueTrace(req, reqBytes)
			resp := s.dispatch(ctx, req)
			resp.ID = req.ID
			finishServerSpan(sp, resp)
			wmu.Lock()
			n, _ := s.writeResponse(conn, &resp, req.Op) //nolint:errcheck // a dead conn fails the read loop too
			wmu.Unlock()
			sp.AddBytes(int64(n), 0)
			sp.End()
		}(req, reqBytes)
	}
}

// writeResponse sends resp. A response that overflows maxFrame (a getbatch or
// query answer too large to ship, say) is replaced by a small error frame
// naming the violation, so the client gets a definite non-retryable remote
// error instead of a dead connection.
func (s *Server) writeResponse(conn net.Conn, resp *response, op string) (int, error) {
	n, err := writeResponseFrame(conn, resp, op)
	if errors.Is(err, ErrFrameTooLarge) {
		small := response{ID: resp.ID, Error: err.Error()}
		n, err = writeResponseFrame(conn, &small, op)
	}
	serverBytesOut.Add(uint64(n))
	return n, err
}

// continueTrace opens the server-side segment of the caller's distributed
// trace when the frame carries a traceparent. Untraced frames get no span at
// all.
func (s *Server) continueTrace(req request, reqBytes int) (context.Context, *telemetry.Span) {
	if req.Trace == "" {
		return context.Background(), nil
	}
	ctx, sp := telemetry.StartRemoteSpan(context.Background(), "wire.server."+req.Op, req.Trace)
	if sp != nil {
		sp.SetAttr("store", s.store.Name())
		sp.SetAttr("op", req.Op)
		if req.Collection != "" {
			sp.SetAttr("collection", req.Collection)
		}
		sp.AddBytes(0, int64(reqBytes))
	}
	return ctx, sp
}

// finishServerSpan records the dispatch outcome before the response frame is
// written (the frame bytes land on the span afterwards).
func finishServerSpan(sp *telemetry.Span, resp response) {
	if sp == nil {
		return
	}
	if resp.Error != "" {
		sp.Mark(telemetry.FlagError)
		sp.SetAttr("error", resp.Error)
	}
}

func (s *Server) dispatch(ctx context.Context, req request) response {
	if c, ok := serverReqs[req.Op]; ok {
		c.Inc()
	} else {
		serverBadOps.Inc()
	}
	switch req.Op {
	case opMeta:
		return response{
			Name:        s.store.Name(),
			Kind:        int(s.store.Kind()),
			Collections: s.store.Collections(),
		}
	case opGet:
		o, err := s.store.Get(ctx, req.Collection, req.Key)
		if err != nil {
			if errors.Is(err, core.ErrNotFound) {
				return response{NotFound: true}
			}
			return response{Error: err.Error()}
		}
		return response{Objects: []wireObject{toWire(o)}}
	case opGetBatch:
		objs, err := s.store.GetBatch(ctx, req.Collection, req.Keys)
		if err != nil {
			return response{Error: err.Error()}
		}
		return objectsResponse(objs)
	case opReach:
		sr, ok := s.store.(ShardReacher)
		if !ok {
			return response{Error: "wire: store cannot answer reach ops"}
		}
		if req.Level > math.MaxInt {
			return response{Error: fmt.Sprintf("wire: reach level %d does not fit an int", req.Level)}
		}
		hits, segs, info, err := sr.ReachMany(ctx, req.Keys, int(req.Level))
		if err != nil {
			return response{Error: err.Error()}
		}
		// Handing one origin another's hits would be a wrong answer, not a
		// degraded one: an answer not split one run per origin is refused.
		if len(segs) != len(req.Keys) || checkSegs(segs, len(hits)) != nil {
			return response{Error: fmt.Sprintf("wire: store answered %d reach origins with %d segments", len(req.Keys), len(segs))}
		}
		return response{Hits: hits, Nodes: info.Nodes, Edges: info.Edges, Segs: segs}
	case opQuery:
		objs, err := s.store.Query(ctx, req.Query)
		if err != nil {
			return response{Error: err.Error()}
		}
		return objectsResponse(objs)
	case opKeyField:
		type keyResolver interface {
			KeyField(context.Context, string) (string, error)
		}
		kr, ok := s.store.(keyResolver)
		if !ok {
			return response{Error: "wire: store cannot resolve key fields"}
		}
		kf, err := kr.KeyField(ctx, req.Collection)
		if err != nil {
			return response{Error: err.Error()}
		}
		return response{KeyField: kf}
	default:
		return response{Error: "wire: unknown op " + req.Op}
	}
}

func objectsResponse(objs []core.Object) response {
	out := make([]wireObject, len(objs))
	for i, o := range objs {
		out[i] = toWire(o)
	}
	return response{Objects: out}
}
