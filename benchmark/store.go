package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"lstore"
	"lstore/internal/server"
)

// store is one ready system under test: the table loaded, sealed and merged,
// and whatever the workload attaches to it — WAL, spill, checkpoint sink,
// HTTP server — behind the benchmark's timing wrappers.
type store struct {
	db  *lstore.DB
	tbl *lstore.Table

	wal     *walSink
	walPath string
	spill   *spillSink
	ckpt    *ckptSink
	// ckptFile is the file sink under ckpt on oltp-durable: the image
	// recovery starts from.
	ckptFile *lstore.FileCheckpointSink

	srv       *server.Server
	base      string        // http://127.0.0.1:port
	serveDone chan error    // Serve's return value
	ckptEvery time.Duration // background checkpointer period, 0 if none
	ckptFrom  int64         // nanos() when the checkpointer started

	info    setupInfo
	closers []func() error // run in reverse by close
}

type setupInfo struct {
	total      time.Duration // load, seal/merge, spill, checkpoint until ready
	encodeWait time.Duration // of which: after the last insert, until sealed and merged
	ckpt       time.Duration // of which: the set-up checkpoint round
	heapBytes  int64         // live heap the store added
	// encodedBytes is the sealed base pages' encoded size as the table's
	// CompressionStats reports it; -1 if that no longer says.
	encodedBytes float64
	footprint    int64 // encoded bytes appended to the spill
}

func (s *store) close() error {
	var errs []error
	for i := len(s.closers) - 1; i >= 0; i-- {
		if err := s.closers[i](); err != nil {
			errs = append(errs, err)
		}
	}
	s.closers = nil
	return errors.Join(errs...)
}

// fill loads the table and waits until it is sealed and merged.
func (s *store) fill(g *gen, miss missing) error {
	if err := g.load(s.db, s.tbl); err != nil {
		return err
	}
	t0 := time.Now()
	err := s.settle(miss)
	s.info.encodeWait = time.Since(t0)
	return err
}

// settle merges what is pending and waits until the engine reports nothing
// left to seal or merge. Seals run on the engine's merge workers, so "done"
// is read from outside: the merge queue is empty and the seal count has
// stopped moving.
func (s *store) settle(miss missing) error {
	s.tbl.Merge()
	last := -1.0
	for {
		c := counters{}
		if err := c.flatten("stats", s.tbl.Stats()); err != nil {
			return err
		}
		seals, ok1 := c.get("stats.Seals", miss)
		depth, ok2 := c.get("stats.MergeQueueDepth", miss)
		if !ok1 || !ok2 || (depth == 0 && seals == last) {
			return nil
		}
		last = seals
		time.Sleep(2 * time.Millisecond)
	}
}

// checkpoint runs one full round through the wrapped sink.
func (s *store) checkpoint() error {
	t0 := time.Now()
	_, err := s.db.CheckpointTo(s.ckpt)
	s.info.ckpt = time.Since(t0)
	return err
}

// openResident: everything in memory, no WAL — the paper's own setting.
func openResident(g *gen, miss missing) (*store, error) {
	s := &store{db: lstore.Open()}
	s.closers = append(s.closers, func() error { s.db.Close(); return nil })
	var err error
	if s.tbl, err = createTable(s.db, tableOptions()); err != nil {
		return s, err
	}
	return s, s.fill(g, miss)
}

// openDurable: a file WAL with real fsync and default group commit; set-up
// ends with a checkpoint, which also truncates the log.
func openDurable(g *gen, tc *traceCtl, dir string, miss missing) (*store, error) {
	s := &store{walPath: filepath.Join(dir, "wal.log")}
	f, err := lstore.OpenWALFile(s.walPath)
	if err != nil {
		return s, err
	}
	s.closers = append(s.closers, f.Close)
	s.wal = &walSink{inner: f, tc: tc}
	s.db = lstore.Open(lstore.WithWAL(s.wal, nil))
	s.closers = append(s.closers, func() error { s.db.Close(); return nil })
	if s.tbl, err = createTable(s.db, tableOptions()); err != nil {
		return s, err
	}
	if err := s.fill(g, miss); err != nil {
		return s, err
	}
	if s.ckptFile, err = lstore.NewFileCheckpointSink(filepath.Join(dir, "ckpt.img")); err != nil {
		return s, err
	}
	s.ckpt = &ckptSink{inner: s.ckptFile, tc: tc}
	return s, s.checkpoint()
}

// openSpilled: base pages go to a spill file behind a buffer pool capped at
// poolBytes (0: the engine's default).
func openSpilled(g *gen, tc *traceCtl, dir string, poolBytes int64, miss missing) (*store, error) {
	s := &store{}
	f, err := lstore.OpenFileSpill(filepath.Join(dir, "spill.lsp"))
	if err != nil {
		return s, err
	}
	s.closers = append(s.closers, f.Close)
	s.spill = &spillSink{inner: f, tc: tc}
	s.db = lstore.Open()
	s.closers = append(s.closers, func() error { s.db.Close(); return nil })
	opts := tableOptions()
	opts.Spill, opts.PoolBytes = s.spill, poolBytes
	if s.tbl, err = createTable(s.db, opts); err != nil {
		return s, err
	}
	if err := s.fill(g, miss); err != nil {
		return s, err
	}
	s.info.footprint = s.spill.append.bytes.Load()
	return s, nil
}

// openServed: server.OpenStore (file WAL, generation-tagged checkpoint
// image), loaded through Store.DB, then served on loopback with the
// background checkpointer running every ckptEvery.
//
// The checkpointer is started here with DB.StartCheckpointer — the call
// OpenStore itself makes for StoreConfig.CheckpointEvery — so that it starts
// after the load instead of checkpointing a half-loaded table, and so that
// its sink is the benchmark's wrapper.
func openServed(g *gen, tc *traceCtl, dir string, ckptEvery time.Duration, miss missing) (*store, error) {
	s := &store{ckptEvery: ckptEvery}
	st, err := server.OpenStore(server.StoreConfig{
		WALPath:        filepath.Join(dir, "wal"),
		CheckpointPath: filepath.Join(dir, "ckpt"),
		Tables: []server.TableSpec{{
			Name: tableName, Key: "id", Columns: schemaColumns(), Indexes: tableOptions().SecondaryIndexes,
		}},
	})
	if err != nil {
		return s, err
	}
	s.db = st.DB
	closeDB := func() error { s.db.Close(); return nil }
	s.closers = append(s.closers, closeDB)
	var ok bool
	if s.tbl, ok = s.db.Table(tableName); !ok {
		return s, fmt.Errorf("OpenStore did not create table %q", tableName)
	}
	if err := s.fill(g, miss); err != nil {
		return s, err
	}
	s.ckpt = &ckptSink{inner: st.Checkpoint, tc: tc}
	if err := s.checkpoint(); err != nil {
		return s, err
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return s, err
	}
	s.base = "http://" + l.Addr().String()
	s.srv = server.New(s.db, server.Config{Checkpoint: s.ckpt})
	s.serveDone = make(chan error, 1)
	go func() { s.serveDone <- s.srv.Serve(l) }()
	// Shutdown drains, writes the final checkpoint and closes the DB itself.
	s.closers[len(s.closers)-1] = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := s.srv.Shutdown(ctx)
		if serr := <-s.serveDone; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		return err
	}
	resp, err := http.Get(s.base + "/healthz")
	if err != nil {
		return s, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	if ckptEvery > 0 {
		s.ckptFrom = nanos()
		if err := s.db.StartCheckpointer(ckptEvery, s.ckpt); err != nil {
			return s, err
		}
	}
	return s, nil
}

// snapshot reads every gauge the benchmark can see from outside into one
// flat map: the engine's own counters by name, the sink wrappers' tallies,
// and the process.
func (s *store) snapshot() (counters, error) {
	c := counters{}
	if err := c.flatten("stats", s.tbl.Stats()); err != nil {
		return nil, err
	}
	if err := c.flatten("wal", s.db.WALInfo()); err != nil {
		return nil, err
	}
	if s.srv != nil {
		resp, err := http.Get(s.base + "/v1/stats")
		if err != nil {
			return nil, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if err := c.flattenJSON("http", b); err != nil {
			return nil, err
		}
	}
	sink := func(name string, sc *sinkCounter) {
		c["sink."+name+".calls"] = float64(sc.calls.Load())
		c["sink."+name+".ns"] = float64(sc.ns.Load())
		c["sink."+name+".bytes"] = float64(sc.bytes.Load())
	}
	if s.wal != nil {
		sink("wal.write", &s.wal.write)
		sink("wal.fsync", &s.wal.sync)
	}
	if s.spill != nil {
		sink("spill.read", &s.spill.read)
		sink("spill.append", &s.spill.append)
	}
	p := sampleProc()
	c["proc.cpu_ns"] = float64(p.cpuNS)
	c["proc.mallocs"] = float64(p.mallocs)
	c["proc.gc_pause_ns"] = float64(p.gcPause)
	return c, nil
}

// fsyncProbe is the median of 200 4-KiB append+fsync pairs in dir, in
// microseconds: the yardstick every latency in the report is read against.
func fsyncProbe(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	durs := make([]int64, 200)
	for i := range durs {
		t0 := time.Now()
		if _, err := f.Write(block); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		durs[i] = int64(time.Since(t0))
	}
	return medianOf(durs) / 1e3, nil
}
