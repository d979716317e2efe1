// Package kvstore implements an embedded key-value store with a Redis-like
// command language. It stands in for the Redis instance of the paper's
// polystore: the shared discounts database.
//
// Unlike Redis, keys live in named buckets so that the store fits the PDM
// notion of data collections: the global key discount.drop.k1:cure:wish
// addresses key "k1:cure:wish" in bucket "drop" of database "discount".
//
// Command language (one command per Do call):
//
//	SET <bucket> <key> <value...>   value is the rest of the line
//	GET <bucket> <key>
//	MGET <bucket> <key> [<key>...]
//	DEL <bucket> <key> [<key>...]
//	KEYS <bucket> <glob>            glob supports * and ?
//	SCAN <bucket>                   all entries in insertion order
//
// LEN and EXISTS are not commands: the validator refuses them by name, as
// their answers are a count and a boolean rather than stored entries, and Do
// reports them as unknown.
package kvstore

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"quepa/internal/telemetry"
)

// Entry is a single key/value pair returned by commands.
type Entry struct {
	Bucket string
	Key    string
	Value  string
}

// Store is an embedded key-value database.
type Store struct {
	name    string
	mu      sync.Mutex
	buckets map[string]*bucket
	tel     telemetry.StoreOps
}

type bucket struct {
	data  map[string]string
	order []string
}

// New creates an empty key-value database with the given name.
func New(name string) *Store {
	return &Store{name: name, buckets: map[string]*bucket{}, tel: telemetry.NewStoreOps(name)}
}

// Name returns the database name.
func (s *Store) Name() string { return s.name }

// Buckets lists bucket names in sorted order.
func (s *Store) Buckets() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.buckets))
	for n := range s.buckets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Set stores a value, creating the bucket on first use.
func (s *Store) Set(bucketName, key, value string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		b = &bucket{data: map[string]string{}}
		s.buckets[bucketName] = b
	}
	if _, exists := b.data[key]; !exists {
		b.order = append(b.order, key)
	}
	b.data[key] = value
}

// Get retrieves a value. The boolean reports presence.
func (s *Store) Get(bucketName, key string) (string, bool) {
	defer s.tel.Get.Since(telemetry.Now())
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return "", false
	}
	v, ok := b.data[key]
	return v, ok
}

// MGet retrieves many values in one round trip, skipping missing keys and
// preserving the order of the found ones.
func (s *Store) MGet(bucketName string, keys []string) []Entry {
	defer s.tel.GetBatch.Since(telemetry.Now())
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return nil
	}
	out := make([]Entry, 0, len(keys))
	for _, k := range keys {
		if v, ok := b.data[k]; ok {
			out = append(out, Entry{Bucket: bucketName, Key: k, Value: v})
		}
	}
	return out
}

// Del removes keys, returning how many existed.
func (s *Store) Del(bucketName string, keys ...string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return 0
	}
	deleted := 0
	for _, k := range keys {
		if _, exists := b.data[k]; exists {
			delete(b.data, k)
			deleted++
		}
	}
	if deleted > 0 {
		kept := b.order[:0]
		for _, k := range b.order {
			if _, exists := b.data[k]; exists {
				kept = append(kept, k)
			}
		}
		b.order = kept
	}
	return deleted
}

// Keys returns the keys of a bucket matching a glob pattern (* and ?), in
// insertion order.
func (s *Store) Keys(bucketName, glob string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return nil
	}
	var out []string
	for _, k := range b.order {
		if globMatch(k, glob) {
			out = append(out, k)
		}
	}
	return out
}

// Do parses and executes one command of the textual language.
func (s *Store) Do(command string) ([]Entry, error) {
	defer s.tel.Query.Since(telemetry.Now())
	fields := strings.Fields(command)
	if len(fields) == 0 {
		return nil, fmt.Errorf("kvstore: empty command")
	}
	op := strings.ToUpper(fields[0])
	args := fields[1:]
	switch op {
	case "SET":
		if len(args) < 3 {
			return nil, fmt.Errorf("kvstore: SET requires bucket, key and value")
		}
		// The value is everything after the key, whitespace preserved as a
		// single space between fields.
		value := strings.Join(args[2:], " ")
		s.Set(args[0], args[1], value)
		return []Entry{{Bucket: args[0], Key: args[1], Value: value}}, nil
	case "GET":
		if len(args) != 2 {
			return nil, fmt.Errorf("kvstore: GET requires bucket and key")
		}
		v, ok := s.Get(args[0], args[1])
		if !ok {
			return nil, nil
		}
		return []Entry{{Bucket: args[0], Key: args[1], Value: v}}, nil
	case "MGET":
		if len(args) < 2 {
			return nil, fmt.Errorf("kvstore: MGET requires bucket and at least one key")
		}
		return s.MGet(args[0], args[1:]), nil
	case "DEL":
		if len(args) < 2 {
			return nil, fmt.Errorf("kvstore: DEL requires bucket and at least one key")
		}
		n := s.Del(args[0], args[1:]...)
		return []Entry{{Bucket: args[0], Key: "deleted", Value: strconv.Itoa(n)}}, nil
	case "KEYS":
		if len(args) != 2 {
			return nil, fmt.Errorf("kvstore: KEYS requires bucket and glob")
		}
		keys := s.Keys(args[0], args[1])
		out := make([]Entry, len(keys))
		for i, k := range keys {
			out[i] = Entry{Bucket: args[0], Key: k}
		}
		return out, nil
	case "SCAN":
		if len(args) != 1 {
			return nil, fmt.Errorf("kvstore: SCAN requires bucket")
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		b, ok := s.buckets[args[0]]
		if !ok {
			return nil, nil
		}
		out := make([]Entry, 0, len(b.order))
		for _, k := range b.order {
			out = append(out, Entry{Bucket: args[0], Key: k, Value: b.data[k]})
		}
		return out, nil
	default:
		return nil, fmt.Errorf("kvstore: unknown command %q", op)
	}
}

// globMatch implements * (any sequence) and ? (any single byte) matching.
func globMatch(s, pattern string) bool {
	si, pi := 0, 0
	star, sStar := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '?' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '*':
			star = pi
			sStar = si
			pi++
		case star >= 0:
			pi = star + 1
			sStar++
			si = sStar
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '*' {
		pi++
	}
	return pi == len(pattern)
}
