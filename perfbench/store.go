package main

import (
	"sync/atomic"
	"time"

	"vectordb/internal/objstore"
)

// countingStore decorates the object store handed to core.NewDB so that
// segment, index, spill and promote traffic is counted and timed from
// outside the engine.
type countingStore struct {
	inner                objstore.Store
	put, get, del, lists opCounter
}

type opCounter struct{ n, bytes, ns atomic.Int64 }

func (c *opCounter) add(t0 time.Time, bytes int) {
	c.ns.Add(int64(time.Since(t0)))
	c.n.Add(1)
	c.bytes.Add(int64(bytes))
}

func (c *opCounter) read() opCount { return opCount{c.n.Load(), c.bytes.Load(), c.ns.Load()} }

// opCount is a point-in-time copy of an opCounter.
type opCount struct{ N, Bytes, Ns int64 }

func (a opCount) sub(b opCount) opCount { return opCount{a.N - b.N, a.Bytes - b.Bytes, a.Ns - b.Ns} }

// meanMs is the mean time per operation in milliseconds (0 with none).
func (a opCount) meanMs() float64 { return ratio(float64(a.Ns), float64(a.N)) / 1e6 }

// storeCounts is a point-in-time copy of a countingStore's counters.
type storeCounts struct{ Put, Get, Del, List opCount }

func newCountingStore(inner objstore.Store) *countingStore {
	return &countingStore{inner: inner}
}

func (s *countingStore) Put(key string, data []byte) error {
	defer s.put.add(time.Now(), len(data))
	return s.inner.Put(key, data)
}

func (s *countingStore) Get(key string) ([]byte, error) {
	t0 := time.Now()
	data, err := s.inner.Get(key)
	s.get.add(t0, len(data))
	return data, err
}

func (s *countingStore) Delete(key string) error {
	defer s.del.add(time.Now(), 0)
	return s.inner.Delete(key)
}

func (s *countingStore) List(prefix string) ([]string, error) {
	defer s.lists.add(time.Now(), 0)
	return s.inner.List(prefix)
}

func (s *countingStore) counts() storeCounts {
	return storeCounts{s.put.read(), s.get.read(), s.del.read(), s.lists.read()}
}

func (a storeCounts) sub(b storeCounts) storeCounts {
	return storeCounts{a.Put.sub(b.Put), a.Get.sub(b.Get), a.Del.sub(b.Del), a.List.sub(b.List)}
}
