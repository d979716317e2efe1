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

func (p *fakePeer) ExpandFrontier(_ context.Context, keys []string, _ []float64, _ []int) ([]wire.RemoteHit, []int, wire.ReachInfo, error) {
	p.served++
	return make([]wire.RemoteHit, len(keys)), nil, wire.ReachInfo{Nodes: len(keys)}, nil
}

func (p *fakePeer) IndexSnapshot(context.Context) ([]byte, uint64, error) {
	p.served++
	return []byte("snap"), 7, nil
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
	expand := func() error { _, _, _, err := n.ExpandFrontier(ctx, []string{"db.c.k"}, []float64{1}, nil); return err }
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

// TestChaosNodeSnapshotNeverFaulted: a permanently down peer still ships its
// index snapshot, and the transfer does not consume a request sequence
// number (bootstrap stays deterministic under any retry schedule).
func TestChaosNodeSnapshotNeverFaulted(t *testing.T) {
	n, _ := chaosNodeFixture(FaultPlan{Down: []Window{{From: 1}}}, func(time.Duration) {})
	data, epoch, err := n.IndexSnapshot(context.Background())
	if err != nil || string(data) != "snap" || epoch != 7 {
		t.Errorf("IndexSnapshot = %q, %d, %v", data, epoch, err)
	}
	if n.Requests() != 0 || n.Injected() != 0 {
		t.Errorf("snapshot charged the gate: requests=%d injected=%d", n.Requests(), n.Injected())
	}
}

// TestChaosNodeInactivePlanIsTransparent: a zero plan forwards every op and
// the peer's metadata untouched, never sleeps and injects nothing.
func TestChaosNodeInactivePlanIsTransparent(t *testing.T) {
	n, peer := chaosNodeFixture(FaultPlan{}, func(time.Duration) { t.Error("slept with inactive plan") })
	ctx := context.Background()
	hits, _, info, err := n.ExpandFrontier(ctx, []string{"x", "y", "z"}, []float64{1, 1, 1}, nil)
	if err != nil || len(hits) != 3 || info.Nodes != 3 {
		t.Errorf("ExpandFrontier = %v, %+v, %v", hits, info, err)
	}
	if n.Requests() != 1 || n.Injected() != 0 || n.Stalled() != 0 || peer.served != 1 {
		t.Errorf("requests=%d injected=%d stalled=%d served=%d, want 1/0/0/1",
			n.Requests(), n.Injected(), n.Stalled(), peer.served)
	}
	if n.Name() != "peer-1" || n.Unwrap() != PeerNode(peer) {
		t.Error("metadata or Unwrap not forwarded")
	}
}
