package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"vectordb/client"
	"vectordb/internal/core"
	"vectordb/internal/objstore"
	"vectordb/internal/plan"
	"vectordb/internal/rest"
)

// conn is one client connection: a client over a transport that holds at
// most one TCP connection, so the benchmark never opens more than the
// connections it makes.
type conn struct {
	c    *client.Client
	hc   *http.Client
	tr   *http.Transport
	base string
}

func newConn(base string) *conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	hc := &http.Client{Transport: tr}
	return &conn{c: client.NewWithHTTPClient(base, hc), hc: hc, tr: tr, base: base}
}

// stack is the serving stack wired as cmd/vectordbd wires it: core.NewDB
// over an object store, optional tiering, and rest.NewServerWithConfig on a
// loopback listener, driven through the client package.
type stack struct {
	db     *core.DB
	col    *core.Collection
	store  *countingStore // nil in untraced runs
	srv    *http.Server
	served chan error
	conns  []*conn
	dir    string
}

// startStack boots a fresh stack whose files live under dir. With tr set
// the store is wrapped by a countingStore and the handler by tr's timer.
func startStack(w *workload, dir string, tr *tracer) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &stack{dir: dir}
	var store objstore.Store
	if w.durable {
		fs, err := objstore.NewFS(filepath.Join(dir, "data"))
		if err != nil {
			return nil, err
		}
		store = fs
	} else {
		store = objstore.NewMemory()
	}
	if tr != nil {
		s.store = newCountingStore(store)
		store = s.store
	}
	s.db = core.NewDB(store)
	if w.tiered {
		tierDir := filepath.Join(dir, "tier")
		s.db.EnableTiering(core.TierDefaults{Dir: tierDir, CacheBytes: w.cacheBytes()})
		prof, _, err := plan.LoadOrCalibrate(filepath.Join(tierDir, plan.CalibrationFile), false)
		if err != nil {
			s.db.Close()
			return nil, fmt.Errorf("planner calibration: %w", err)
		}
		s.db.Planner().UseProfile(prof)
	}
	var h http.Handler = rest.NewServerWithConfig(s.db, rest.ServerConfig{})
	if tr != nil {
		h = tr.wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.db.Close()
		return nil, err
	}
	s.srv = &http.Server{Handler: h}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	for i := 0; i < maxConns; i++ {
		s.conns = append(s.conns, newConn(base))
	}
	return s, nil
}

// createCollection creates the benchmark collection over REST with the
// index type and nlist fixed at create.
func (s *stack) createCollection(w *workload) error {
	body, err := json.Marshal(rest.CreateCollectionRequest{
		Name:         collection,
		VectorFields: []rest.VectorFieldJSON{{Name: vecName, Dim: dim, Metric: "L2"}},
		AttrFields:   []string{attrName},
		CatFields:    []string{catName},
		IndexType:    "IVF_FLAT",
		IndexParams:  map[string]string{"nlist": strconv.Itoa(nlist)},
	})
	if err != nil {
		return err
	}
	resp, err := s.conns[0].hc.Post(s.conns[0].base+"/collections", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("create collection: HTTP %d", resp.StatusCode)
	}
	s.col, err = s.db.Collection(collection)
	return err
}

// close stops the server, closes the database and removes the stack's
// files. It returns once the serving goroutine has exited.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	for _, c := range s.conns {
		c.tr.CloseIdleConnections()
	}
	if cerr := s.db.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(s.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// layout describes the collection's segments: how many, and how many rows
// sit in segments without an index (served by brute-force scan).
type layout struct {
	Segments      int `json:"segments"`
	UnindexedRows int `json:"unindexed_rows"`
	IndexedSegs   int `json:"indexed_segments"`
}

func (s *stack) layout() layout {
	sn := s.col.AcquireSnapshot()
	defer s.col.ReleaseSnapshot(sn)
	var l layout
	for _, seg := range sn.Segments {
		l.Segments++
		if seg.Index(0) == nil {
			l.UnindexedRows += seg.Rows()
		} else {
			l.IndexedSegs++
		}
	}
	return l
}

// indexedSegments returns the IDs of live segments that carry an index.
func (s *stack) indexedSegments() map[int64]bool {
	sn := s.col.AcquireSnapshot()
	defer s.col.ReleaseSnapshot(sn)
	out := map[int64]bool{}
	for _, seg := range sn.Segments {
		if seg.Index(0) != nil {
			out[seg.ID] = true
		}
	}
	return out
}
