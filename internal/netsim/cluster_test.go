package netsim

import (
	"context"
	"errors"
	"testing"
	"time"

	"quepa/internal/connector"
	"quepa/internal/core"
	"quepa/internal/stores/kvstore"
	"quepa/internal/wire"
)

// fakePeer is a PeerNode that answers every cluster op with a fixed value
// and counts the calls that reached it.
type fakePeer struct {
	core.Store
	served int
}

func (p *fakePeer) ReachMany(_ context.Context, origins []string, _ int) ([]wire.RemoteHit, []int, wire.ReachInfo, error) {
	p.served++
	segs := make([]int, len(origins))
	for i := range segs {
		segs[i] = 1
	}
	return make([]wire.RemoteHit, len(origins)), segs, wire.ReachInfo{Nodes: len(origins)}, nil
}

func chaosNodeFixture(plan FaultPlan, sleep func(time.Duration)) (*ChaosNode, *fakePeer) {
	peer := &fakePeer{Store: connector.NewKeyValue(kvstore.New("peer-1"))}
	return NewChaosNode(peer, plan, sleep), peer
}

// TestChaosNodeDownWindow: inside a down window every scatter leg fails with
// the injected error before reaching the peer, and advances
// Requests/Injected; outside it the legs are served.
func TestChaosNodeDownWindow(t *testing.T) {
	n, peer := chaosNodeFixture(FaultPlan{Down: []Window{{From: 1, To: 4}}}, func(time.Duration) {})
	ctx := context.Background()
	expand := func() error { _, _, _, err := n.ReachMany(ctx, []string{"db.c.k"}, 2); return err }
	for i := 1; i <= 3; i++ {
		if err := expand(); !errors.Is(err, ErrInjected) {
			t.Errorf("leg %d in down window: want injected fault, got %v", i, err)
		}
		if got := uint64(i); n.Requests() != got || n.Injected() != got {
			t.Errorf("after leg %d: requests=%d injected=%d, want %d/%d", i, n.Requests(), n.Injected(), got, got)
		}
	}
	if peer.served != 0 {
		t.Errorf("peer served %d faulted requests", peer.served)
	}
	for i := 4; i <= 6; i++ {
		if err := expand(); err != nil {
			t.Errorf("leg %d after the window: %v", i, err)
		}
	}
	if n.Requests() != 6 || n.Injected() != 3 || peer.served != 3 {
		t.Errorf("requests=%d injected=%d served=%d, want 6/3/3", n.Requests(), n.Injected(), peer.served)
	}
}

// TestChaosNodeInactivePlanIsTransparent: a zero plan forwards every op and
// the peer's metadata untouched, never sleeps and injects nothing.
func TestChaosNodeInactivePlanIsTransparent(t *testing.T) {
	n, peer := chaosNodeFixture(FaultPlan{}, func(time.Duration) { t.Error("slept with inactive plan") })
	ctx := context.Background()
	hits, segs, info, err := n.ReachMany(ctx, []string{"x", "y", "z"}, 2)
	if err != nil || len(hits) != 3 || len(segs) != 3 || info.Nodes != 3 {
		t.Errorf("ReachMany = %v, %v, %+v, %v", hits, segs, info, err)
	}
	if n.Requests() != 1 || n.Injected() != 0 || n.Stalled() != 0 || peer.served != 1 {
		t.Errorf("requests=%d injected=%d stalled=%d served=%d, want 1/0/0/1",
			n.Requests(), n.Injected(), n.Stalled(), peer.served)
	}
	if n.Name() != "peer-1" || n.Unwrap() != PeerNode(peer) {
		t.Error("metadata or Unwrap not forwarded")
	}
}
