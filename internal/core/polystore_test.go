package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// fakeStore is a minimal in-memory Store used to exercise the registry.
type fakeStore struct {
	name    string
	kind    StoreKind
	objects map[string]map[string]Object // collection -> key -> object
}

func newFakeStore(name string, kind StoreKind) *fakeStore {
	return &fakeStore{name: name, kind: kind, objects: map[string]map[string]Object{}}
}

func (f *fakeStore) put(collection, key string, fields map[string]string) {
	if f.objects[collection] == nil {
		f.objects[collection] = map[string]Object{}
	}
	f.objects[collection][key] = NewObject(NewGlobalKey(f.name, collection, key), fields)
}

func (f *fakeStore) Name() string    { return f.name }
func (f *fakeStore) Kind() StoreKind { return f.kind }

func (f *fakeStore) Collections() []string {
	var out []string
	for c := range f.objects {
		out = append(out, c)
	}
	return out
}

func (f *fakeStore) Get(_ context.Context, collection, key string) (Object, error) {
	o, ok := f.objects[collection][key]
	if !ok {
		return Object{}, fmt.Errorf("fake %s/%s/%s: %w", f.name, collection, key, ErrNotFound)
	}
	return o, nil
}

func (f *fakeStore) GetBatch(ctx context.Context, collection string, keys []string) ([]Object, error) {
	var out []Object
	for _, k := range keys {
		if o, err := f.Get(ctx, collection, k); err == nil {
			out = append(out, o)
		}
	}
	return out, nil
}

func (f *fakeStore) Query(context.Context, string) ([]Object, error) {
	return nil, ErrUnsupportedQuery
}

func TestPolystoreRegister(t *testing.T) {
	p := NewPolystore()
	if err := p.Register(newFakeStore("sales", KindRelational)); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := p.Register(newFakeStore("sales", KindDocument)); err == nil {
		t.Error("duplicate Register should fail")
	}
	if err := p.Register(nil); err == nil {
		t.Error("Register(nil) should fail")
	}
	if err := p.Register(newFakeStore("", KindDocument)); err == nil {
		t.Error("Register with empty name should fail")
	}
	if p.Size() != 1 {
		t.Errorf("Size() = %d, want 1", p.Size())
	}
}

func TestPolystoreDatabases(t *testing.T) {
	p := NewPolystore()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if err := p.Register(newFakeStore(name, KindKeyValue)); err != nil {
			t.Fatal(err)
		}
	}
	got := p.Databases()
	want := []string{"alpha", "mid", "zeta"}
	if len(got) != len(want) {
		t.Fatalf("Databases() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Databases()[%d] = %q, want %q (sorted)", i, got[i], want[i])
		}
	}
}

func TestPolystoreDeregister(t *testing.T) {
	p := NewPolystore()
	if err := p.Register(newFakeStore("db", KindGraph)); err != nil {
		t.Fatal(err)
	}
	if !p.Deregister("db") {
		t.Error("Deregister existing database returned false")
	}
	if p.Deregister("db") {
		t.Error("Deregister missing database returned true")
	}
	if _, err := p.Database("db"); err == nil {
		t.Error("Database after Deregister should fail")
	}
}

func TestPolystoreFetch(t *testing.T) {
	p := NewPolystore()
	s := newFakeStore("catalogue", KindDocument)
	s.put("albums", "d1", map[string]string{"title": "Wish"})
	if err := p.Register(s); err != nil {
		t.Fatal(err)
	}

	o, err := p.Fetch(context.Background(), MustParseGlobalKey("catalogue.albums.d1"))
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if v, _ := o.Fields.Get("title"); v != "Wish" {
		t.Errorf("fetched object title = %q", v)
	}

	if _, err := p.Fetch(context.Background(), MustParseGlobalKey("catalogue.albums.nope")); !errors.Is(err, ErrNotFound) {
		t.Errorf("Fetch missing: err = %v, want ErrNotFound", err)
	}
	if _, err := p.Fetch(context.Background(), MustParseGlobalKey("unknown.albums.d1")); err == nil {
		t.Error("Fetch from unknown database should fail")
	}
}

func TestPolystoreFetchBatch(t *testing.T) {
	p := NewPolystore()
	s := newFakeStore("kv", KindKeyValue)
	s.put("drop", "k1", map[string]string{ValueField: "40%"})
	s.put("drop", "k2", map[string]string{ValueField: "10%"})
	if err := p.Register(s); err != nil {
		t.Fatal(err)
	}

	out, err := p.FetchBatch(context.Background(), "kv", "drop", []string{"k1", "missing", "k2"})
	if err != nil {
		t.Fatalf("FetchBatch: %v", err)
	}
	if len(out) != 2 {
		t.Fatalf("FetchBatch returned %d objects, want 2 (missing key skipped)", len(out))
	}
	if out[0].GK.Key != "k1" || out[1].GK.Key != "k2" {
		t.Errorf("FetchBatch order not preserved: %v, %v", out[0].GK, out[1].GK)
	}

	if _, err := p.FetchBatch(context.Background(), "nope", "drop", []string{"k1"}); err == nil {
		t.Error("FetchBatch on unknown database should fail")
	}
}

func TestPolystoreQueryRouting(t *testing.T) {
	p := NewPolystore()
	if err := p.Register(newFakeStore("db", KindRelational)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Query(context.Background(), "db", "anything"); !errors.Is(err, ErrUnsupportedQuery) {
		t.Errorf("Query should surface the store error, got %v", err)
	}
	if _, err := p.Query(context.Background(), "absent", "q"); err == nil {
		t.Error("Query on unknown database should fail")
	}
}
