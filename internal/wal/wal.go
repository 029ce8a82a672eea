// Package wal provides the durable transaction log behind a data centre
// (paper §6.3: "Cloud nodes (DCs and PoPs) have secondary storage and
// persist their data to it"). Committed transactions are appended as JSON
// lines; on restart, the DC replays the log in order — which is a causal
// order, because transactions are appended as they are applied — and
// reconstructs its state. Far-edge nodes deliberately have no WAL (the paper
// assumes no disk at the far edge; they repopulate their caches from the
// group or the DC on reconnection).
package wal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"colony/internal/crdt"
	"colony/internal/obs"
	"colony/internal/txn"
	"colony/internal/vclock"
)

// record is the on-disk form of one transaction. Commit stamps become a
// string-keyed map (JSON object keys must be strings).
type record struct {
	Node     string            `json:"node"`
	Seq      uint64            `json:"seq"`
	Origin   string            `json:"origin"`
	Actor    string            `json:"actor,omitempty"`
	Snapshot []uint64          `json:"snapshot"`
	Commit   map[string]uint64 `json:"commit"`
	Updates  []recordUpdate    `json:"updates"`
}

type recordUpdate struct {
	Bucket string          `json:"bucket"`
	Key    string          `json:"key"`
	Kind   uint8           `json:"kind"`
	Seq    int             `json:"useq"`
	Op     json.RawMessage `json:"op"`
}

// encode converts a transaction to its disk record.
func encode(t *txn.Transaction) (record, error) {
	r := record{
		Node:     t.Dot.Node,
		Seq:      t.Dot.Seq,
		Origin:   t.Origin,
		Actor:    t.Actor,
		Snapshot: append([]uint64(nil), t.Snapshot...),
		Commit:   make(map[string]uint64, len(t.Commit)),
	}
	for dc, ts := range t.Commit {
		r.Commit[strconv.Itoa(dc)] = ts
	}
	for _, u := range t.Updates {
		op, err := json.Marshal(u.Op)
		if err != nil {
			return record{}, fmt.Errorf("wal: encode op: %w", err)
		}
		r.Updates = append(r.Updates, recordUpdate{
			Bucket: u.Object.Bucket, Key: u.Object.Key,
			Kind: uint8(u.Kind), Seq: u.Seq, Op: op,
		})
	}
	return r, nil
}

// decode converts a disk record back to a transaction.
func decode(r record) (*txn.Transaction, error) {
	t := &txn.Transaction{
		Dot:      vclock.Dot{Node: r.Node, Seq: r.Seq},
		Origin:   r.Origin,
		Actor:    r.Actor,
		Snapshot: vclock.Vector(r.Snapshot),
		Commit:   make(vclock.CommitStamps, len(r.Commit)),
	}
	for dcStr, ts := range r.Commit {
		dc, err := strconv.Atoi(dcStr)
		if err != nil {
			return nil, fmt.Errorf("wal: bad commit key %q: %w", dcStr, err)
		}
		t.Commit[dc] = ts
	}
	for _, u := range r.Updates {
		var op crdt.Op
		if err := json.Unmarshal(u.Op, &op); err != nil {
			return nil, fmt.Errorf("wal: decode op: %w", err)
		}
		t.Updates = append(t.Updates, txn.Update{
			Object: txn.ObjectID{Bucket: u.Bucket, Key: u.Key},
			Kind:   crdt.Kind(u.Kind),
			Op:     op,
			Seq:    u.Seq,
		})
	}
	return t, nil
}

// Options tunes the log's group-commit pipeline: a single writer goroutine
// batches appends from concurrent committers and fsyncs once per batch, so N
// concurrent durable appends cost one fsync instead of N.
type Options struct {
	// SyncEvery caps the number of appends coalesced into one fsync batch
	// (default 64).
	SyncEvery int
	// SyncInterval, when positive, lets the writer wait up to this long to
	// fill a batch after its first append; zero fsyncs whatever is
	// immediately pending (lowest latency, still batches under load).
	SyncInterval time.Duration
	// OnError observes asynchronous append/flush/fsync errors — the ones a
	// fire-and-forget Append cannot return to its caller. May be called from
	// the writer goroutine.
	OnError func(error)
	// Obs, when non-nil, records wal.fsyncs, wal.appends, wal.batch_txs and
	// wal.flush_ns.
	Obs *obs.Registry
}

// appendReq is one transaction queued for the group-commit writer. done is
// nil for fire-and-forget appends; otherwise it receives the batch outcome
// once the batch is flushed and fsynced.
type appendReq struct {
	data []byte
	done chan error
}

// Log is an append-only transaction log backed by one file.
type Log struct {
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	path string
	err  error // sticky: first asynchronous write/sync failure

	opts     Options
	onErr    func(error)
	reqCh    chan appendReq
	flushCh  chan chan error
	stopOnce sync.Once
	stopCh   chan struct{}
	doneCh   chan struct{}

	// Instrumentation handles (nil-safe no-ops without a registry).
	obsFsyncs  *obs.Counter
	obsAppends *obs.Counter
	obsBatch   *obs.Histogram
	obsFlushNs *obs.Histogram
}

// Open creates (or opens for append) the log at dir/name with default
// options.
func Open(dir, name string) (*Log, error) {
	return OpenWithOptions(dir, name, Options{})
}

// OpenWithOptions creates (or opens for append) the log at dir/name and
// starts its group-commit writer.
func OpenWithOptions(dir, name string, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 64
	}
	l := &Log{f: f, w: bufio.NewWriter(f), path: path, opts: opts, onErr: opts.OnError}
	l.obsFsyncs = opts.Obs.Counter("wal.fsyncs")
	l.obsAppends = opts.Obs.Counter("wal.appends")
	l.obsBatch = opts.Obs.Histogram("wal.batch_txs")
	l.obsFlushNs = opts.Obs.Histogram("wal.flush_ns")
	l.reqCh = make(chan appendReq, 4*opts.SyncEvery)
	l.flushCh = make(chan chan error)
	l.stopCh = make(chan struct{})
	l.doneCh = make(chan struct{})
	go l.writerLoop()
	return l, nil
}

// marshal converts a transaction to its JSON line (without the newline).
func marshal(t *txn.Transaction) ([]byte, error) {
	r, err := encode(t)
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("wal: marshal: %w", err)
	}
	return data, nil
}

// Append records one transaction without waiting for durability: the
// append is queued for the writer, and errors surface via OnError and Err.
func (l *Log) Append(t *txn.Transaction) error {
	data, err := marshal(t)
	if err != nil {
		return err
	}
	l.obsAppends.Inc()
	select {
	case <-l.stopCh:
		return errors.New("wal: closed")
	default:
	}
	select {
	case l.reqCh <- appendReq{data: data}:
		return nil
	case <-l.stopCh:
		return errors.New("wal: closed")
	}
}

// AppendWait records one transaction and returns only once its batch is
// durable (flushed and fsynced): the wait piggybacks on the writer's next
// batch fsync.
func (l *Log) AppendWait(t *txn.Transaction) error {
	data, err := marshal(t)
	if err != nil {
		return err
	}
	l.obsAppends.Inc()
	select {
	case <-l.stopCh:
		return errors.New("wal: closed")
	default:
	}
	done := make(chan error, 1)
	select {
	case l.reqCh <- appendReq{data: data, done: done}:
	case <-l.stopCh:
		return errors.New("wal: closed")
	}
	select {
	case err := <-done:
		return err
	case <-l.doneCh:
		// Writer shut down mid-wait; the stop path flushed everything it
		// had accepted, so report the sticky state.
		return l.Err()
	}
}

// writeLineLocked writes one record line into the buffer. Caller holds l.mu.
func (l *Log) writeLineLocked(data []byte) error {
	if _, err := l.w.Write(data); err != nil {
		return fmt.Errorf("wal: write: %w", err)
	}
	if err := l.w.WriteByte('\n'); err != nil {
		return fmt.Errorf("wal: write: %w", err)
	}
	return nil
}

// noteErrLocked records the first failure stickily and reports it to the
// OnError observer. Caller holds l.mu.
func (l *Log) noteErrLocked(err error) {
	if l.err == nil {
		l.err = err
	}
	if l.onErr != nil {
		// Release the lock around the callback? The callback only records
		// counters; keep it cheap and non-reentrant.
		l.onErr(err)
	}
}

// Err returns the first asynchronous write/flush/fsync failure, if any — the
// errors a fire-and-forget Append cannot return. Once set it never clears.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// writerLoop is the group-commit writer: it collects runs of queued appends
// and makes each run durable with a single flush+fsync, then releases every
// waiter in the batch.
func (l *Log) writerLoop() {
	defer close(l.doneCh)
	for {
		select {
		case <-l.stopCh:
			// Keep draining until the queue is empty so every accepted
			// append reaches the file before Close flushes it.
			for {
				batch := l.drainPending(nil)
				if len(batch) == 0 {
					return
				}
				l.commitBatch(batch)
			}
		case ch := <-l.flushCh:
			ch <- l.flushSync()
		case r := <-l.reqCh:
			batch := l.fillBatch([]appendReq{r})
			l.commitBatch(batch)
		}
	}
}

// fillBatch grows a batch up to SyncEvery entries, waiting at most
// SyncInterval (greedy drain when the interval is zero).
func (l *Log) fillBatch(batch []appendReq) []appendReq {
	if l.opts.SyncInterval <= 0 {
		return l.drainPending(batch)
	}
	timer := time.NewTimer(l.opts.SyncInterval)
	defer timer.Stop()
	for len(batch) < l.opts.SyncEvery {
		select {
		case r := <-l.reqCh:
			batch = append(batch, r)
		case <-timer.C:
			return batch
		case <-l.stopCh:
			return batch
		}
	}
	return batch
}

// drainPending appends every immediately available request, up to SyncEvery.
func (l *Log) drainPending(batch []appendReq) []appendReq {
	for len(batch) < l.opts.SyncEvery {
		select {
		case r := <-l.reqCh:
			batch = append(batch, r)
		default:
			return batch
		}
	}
	return batch
}

// commitBatch writes, flushes and fsyncs one batch, then signals waiters.
func (l *Log) commitBatch(batch []appendReq) {
	if len(batch) == 0 {
		return
	}
	start := time.Now()
	l.mu.Lock()
	var err error
	if l.w == nil {
		err = errors.New("wal: closed")
	} else {
		for _, r := range batch {
			if err = l.writeLineLocked(r.data); err != nil {
				break
			}
		}
		if err == nil {
			if err = l.w.Flush(); err == nil {
				err = l.f.Sync()
			}
		}
	}
	if err != nil {
		l.noteErrLocked(err)
	}
	l.mu.Unlock()
	if err == nil {
		l.obsFsyncs.Inc()
		l.obsBatch.Observe(int64(len(batch)))
		l.obsFlushNs.Observe(int64(time.Since(start)))
	}
	for _, r := range batch {
		if r.done != nil {
			r.done <- err
		}
	}
}

// flushSync flushes buffers and fsyncs the file (writer goroutine only).
func (l *Log) flushSync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w == nil {
		return errors.New("wal: closed")
	}
	if err := l.w.Flush(); err != nil {
		l.noteErrLocked(err)
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.noteErrLocked(err)
		return err
	}
	return nil
}

// Sync makes everything appended so far durable. The request is serialised
// through the writer so it cannot race a batch write.
func (l *Log) Sync() error {
	ch := make(chan error, 1)
	select {
	case l.flushCh <- ch:
		return <-ch
	case <-l.doneCh:
		// Writer already stopped (Close ran); its stop path flushed.
		return l.Err()
	}
}

// Close stops the group-commit writer (flushing and fsyncing everything it
// accepted), then flushes and closes the file.
func (l *Log) Close() error {
	l.stopOnce.Do(func() { close(l.stopCh) })
	<-l.doneCh
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w == nil {
		return nil
	}
	flushErr := l.w.Flush()
	closeErr := l.f.Close()
	l.w, l.f = nil, nil
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// Replay streams the transactions recorded at dir/name, in append order, to
// fn. A missing file is an empty log. A truncated final line (crash during
// append) is tolerated and ends the replay.
func Replay(dir, name string, fn func(*txn.Transaction) error) error {
	f, err := os.Open(filepath.Join(dir, name))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: open for replay: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(line, &r); err != nil {
			// A torn tail write is expected after a crash; anything mid-file
			// is corruption worth surfacing.
			if isLastLine(sc) {
				return nil
			}
			return fmt.Errorf("wal: corrupt record: %w", err)
		}
		t, err := decode(r)
		if err != nil {
			return err
		}
		if err := fn(t); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil && !errors.Is(err, io.EOF) {
		return fmt.Errorf("wal: replay: %w", err)
	}
	return nil
}

// isLastLine reports whether the scanner has no further content.
func isLastLine(sc *bufio.Scanner) bool { return !sc.Scan() }
