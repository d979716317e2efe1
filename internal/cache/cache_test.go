package cache

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"quepa/internal/core"
)

func obj(key string) core.Object {
	return core.NewObject(core.NewGlobalKey("db", "c", key), map[string]string{"v": key})
}

// field returns the named field of o, "" when absent.
func field(o core.Object, name string) string {
	v, _ := o.Fields.Get(name)
	return v
}

func TestPutGet(t *testing.T) {
	c := NewLRU(2)
	c.Put(obj("a"))
	got, ok := c.Get(obj("a").GK)
	if !ok || field(got, "v") != "a" {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if _, ok := c.Get(obj("zz").GK); ok {
		t.Error("missing key reported cached")
	}
}

func TestEviction(t *testing.T) {
	c := NewLRU(2)
	c.Put(obj("a"))
	c.Put(obj("b"))
	c.Put(obj("c")) // evicts a
	if _, ok := c.Get(obj("a").GK); ok {
		t.Error("LRU entry not evicted")
	}
	if _, ok := c.Get(obj("b").GK); !ok {
		t.Error("recent entry evicted")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestLRUOrderOnAccess(t *testing.T) {
	c := NewLRU(2)
	c.Put(obj("a"))
	c.Put(obj("b"))
	c.Get(obj("a").GK) // a is now most recent
	c.Put(obj("c"))    // evicts b
	if _, ok := c.Get(obj("a").GK); !ok {
		t.Error("recently accessed entry evicted")
	}
	if _, ok := c.Get(obj("b").GK); ok {
		t.Error("least recently used entry survived")
	}
}

func TestPutRefreshes(t *testing.T) {
	c := NewLRU(2)
	c.Put(obj("a"))
	updated := core.NewObject(obj("a").GK, map[string]string{"v": "new"})
	c.Put(updated)
	if c.Len() != 1 {
		t.Errorf("Len after refresh = %d", c.Len())
	}
	got, _ := c.Get(obj("a").GK)
	if field(got, "v") != "new" {
		t.Errorf("refreshed value = %v", got.Fields)
	}
}

func TestZeroCapacityDisables(t *testing.T) {
	c := NewLRU(0)
	c.Put(obj("a"))
	if _, ok := c.Get(obj("a").GK); ok {
		t.Error("zero-capacity cache stored an object")
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d", c.Len())
	}
	neg := NewLRU(-5)
	if neg.Capacity() != 0 {
		t.Errorf("negative capacity = %d", neg.Capacity())
	}
}

func TestResize(t *testing.T) {
	c := NewLRU(4)
	for _, k := range []string{"a", "b", "c", "d"} {
		c.Put(obj(k))
	}
	c.Resize(2)
	if c.Len() != 2 {
		t.Errorf("Len after shrink = %d", c.Len())
	}
	// The two most recent survive.
	if _, ok := c.Get(obj("d").GK); !ok {
		t.Error("most recent evicted on shrink")
	}
	if _, ok := c.Get(obj("a").GK); ok {
		t.Error("oldest survived shrink")
	}
	c.Resize(10)
	if c.Capacity() != 10 {
		t.Errorf("Capacity = %d", c.Capacity())
	}
	c.Resize(-1)
	if c.Capacity() != 0 || c.Len() != 0 {
		t.Errorf("negative resize: cap=%d len=%d", c.Capacity(), c.Len())
	}
}

func TestRemove(t *testing.T) {
	c := NewLRU(2)
	c.Put(obj("a"))
	if !c.Remove(obj("a").GK) {
		t.Error("Remove existing returned false")
	}
	if c.Remove(obj("a").GK) {
		t.Error("Remove missing returned true")
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestClearAndStats(t *testing.T) {
	c := NewLRU(2)
	c.Put(obj("a"))
	c.Get(obj("a").GK)  // hit
	c.Get(obj("zz").GK) // miss
	c.Clear()
	if c.Len() != 0 {
		t.Errorf("Len after Clear = %d", c.Len())
	}
	if n := c.Counts(); n.Hits != 1 || n.Misses != 1 {
		t.Errorf("Counts = %+v, want 1 hit, 1 miss", n)
	}
}

func TestCapacityInvariant(t *testing.T) {
	// Property: after any sequence of puts, Len never exceeds capacity.
	f := func(keys []string, capRaw uint8) bool {
		capacity := int(capRaw % 8)
		c := NewLRU(capacity)
		for _, k := range keys {
			c.Put(obj(k))
			if c.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := NewLRU(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("g%d-%d", g, i%32)
				c.Put(obj(k))
				c.Get(obj(k).GK)
				if i%50 == 0 {
					c.Resize(32 + i%64)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > c.Capacity() {
		t.Errorf("Len %d exceeds capacity %d", c.Len(), c.Capacity())
	}
}
