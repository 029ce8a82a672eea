package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"colony/internal/chat"
	"colony/internal/core"
	"colony/internal/dc"
	"colony/internal/obs"
	"colony/internal/txn"
	"colony/internal/wire"
)

// simScale runs the paper's latency profile ten times faster, as the
// figure experiments in internal/bench do: DC heartbeats fire every 2 ms.
const simScale = 0.1

// ingestEnv runs write-heavy posting on 48 devices over partially
// replicating DCs with a synchronous group-commit WAL.
type ingestEnv struct {
	cluster *core.Cluster
	dataDir string
	devs    []*core.Connection
	readers []*core.CloudSession
	probers []*core.Connection
	probes  []*probeLog
	cross   []*observer
	issued  issuedPosts
}

// ingestInterest is DC i's boot-time interest: its home workspace buckets
// and the lobby.
func ingestInterest(i int) []string {
	out := []string{lobbyBucket}
	for j := 0; j < ingestHomeWS; j++ {
		out = append(out, ingestBucket(i, j))
	}
	return out
}

// ingestChannels lists the channel objects of one bucket.
func ingestChannels(bucket string) []string {
	n := ingestChans
	if bucket == lobbyBucket {
		n = lobbyChans
	}
	out := make([]string, n)
	for c := range out {
		out[c] = chat.ChannelName(c)
	}
	return out
}

func setupIngest(seed int64, tmpRoot string, nProbes int) (env, error) {
	dataDir, err := os.MkdirTemp(tmpRoot, "ingest-wal-")
	if err != nil {
		return nil, err
	}
	interest := map[int][]string{}
	for i := 0; i < 3; i++ {
		interest[i] = ingestInterest(i)
	}
	cluster, err := core.NewCluster(core.ClusterConfig{
		DCs: 3, ShardsPerDC: 4, K: 2,
		Profile: core.PaperProfile(), Scale: simScale,
		Heartbeat: time.Duration(float64(20*time.Millisecond) * simScale),
		Seed:      seed,
		DataDir:   dataDir, SyncWrites: true,
		PartialRepl: true, DCBuckets: interest,
		AutoAdvanceThreshold: 256,
	})
	if err != nil {
		os.RemoveAll(dataDir)
		return nil, err
	}
	e := &ingestEnv{cluster: cluster, dataDir: dataDir, probes: newProbeLogs(nProbes)}
	// Devices subscribe only once the populated channels and probe counter
	// are K-stable everywhere: a device applies pushed updates only to
	// objects it holds.
	err = e.populate()
	if err == nil {
		err = waitKStable(clusterDCs(cluster), 30*time.Second)
	}
	if err == nil {
		err = e.connect()
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// connectOpts are the device session settings internal/bench uses.
func connectOpts(name string, dcIdx int) core.ConnectOptions {
	retry := time.Duration(float64(20*time.Millisecond) * simScale)
	return core.ConnectOptions{
		Name: name, User: name, DC: dcIdx,
		RetryInterval: retry, MaxUnacked: 16, CallTimeout: 10 * time.Second,
		AutoAdvanceThreshold: 256,
	}
}

// populate creates every channel from an admin session on the DC that homes
// its bucket (DC 0 for the lobby and the probe counter), so no DC acquires
// a bucket outside its interest.
func (e *ingestEnv) populate() error {
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < 3; i++ {
		for !e.cluster.DC(i).ScopesKnown() {
			if time.Now().After(deadline) {
				return fmt.Errorf("dc%d: peer bucket scopes unknown after 10s", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < 3; i++ {
		admin, err := e.cluster.Connect(connectOpts(fmt.Sprintf("admin%d", i), i))
		if err != nil {
			return err
		}
		buckets := ingestInterest(i)
		if i != 0 {
			buckets = buckets[1:]
		}
		err = admin.Update(func(tx *core.Tx) {
			for _, b := range buckets {
				for _, ch := range ingestChannels(b) {
					tx.Map(b, ch).Register("desc").Assign("channel " + b + "/" + ch)
				}
			}
			if i == 0 {
				for _, l := range e.probes {
					tx.Counter(lobbyBucket, l.key).Increment(0)
				}
			}
		})
		if err == nil {
			err = admin.Flush(10 * time.Second)
		}
		admin.Close()
		if err != nil {
			return fmt.Errorf("populate dc%d: %w", i, err)
		}
	}
	return nil
}

// connect attaches the devices, 16 per DC, each warmed with its home
// channels and the lobby, one cloud reader per DC, and the probe writers:
// extra devices on DC 0. Devices 1 and 2, on DCs 1 and 2, observe the
// probes.
func (e *ingestEnv) connect() error {
	e.devs = make([]*core.Connection, ingestDevices)
	errs := make([]error, ingestDevices)
	var wg sync.WaitGroup
	for i := range e.devs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := e.cluster.Connect(connectOpts(fmt.Sprintf("dev%02d", i), i%3))
			if err != nil {
				errs[i] = err
				return
			}
			e.devs[i] = conn
			for _, b := range ingestInterest(i % 3) {
				if err := conn.Prefetch(b, ingestChannels(b)...); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i := 0; i < 3; i++ {
		e.readers = append(e.readers, e.cluster.CloudConnect(fmt.Sprintf("reader%d", i), fmt.Sprintf("reader%d", i), i))
	}
	for w := 0; w < probeWriters; w++ {
		conn, err := e.cluster.Connect(connectOpts(fmt.Sprintf("prober%d", w), 0))
		if err != nil {
			return err
		}
		e.probers = append(e.probers, conn)
	}
	for _, i := range []int{1, 2} {
		obs, err := watchProbes(e.devs[i], lobbyBucket, e.probes)
		if err != nil {
			return err
		}
		e.cross = append(e.cross, obs...)
	}
	return nil
}

func (e *ingestEnv) do(a action, tr *tracer) (bool, error) {
	if a.Kind == actRemoteRead {
		root := tr.begin(spAppRemoteRead)
		defer tr.end(root)
		id := txn.ObjectID{Bucket: a.Bucket, Key: a.Key}
		sp := tr.begin(spCoreCloud)
		defer tr.end(sp)
		return true, e.readers[a.Client].Do(func(read wire.TxReader, _ wire.TxUpdater) error {
			obj, err := read(id)
			if err != nil {
				return err
			}
			_, err = messagesIn(obj)
			return err
		})
	}
	root := tr.begin(spAppPost)
	defer tr.end(root)
	conn := e.devs[a.Client]
	sp := tr.begin(spCoreBuild)
	tx := conn.StartTransaction()
	tx.Map(a.Bucket, a.Key).Seq("messages").Append(chat.Message{Author: conn.User(), Text: "m"}.Encode())
	tr.end(sp)
	sp = tr.begin(spEdgeCommit)
	err := tx.Commit()
	tr.end(sp)
	if err == nil {
		e.issued.add(txn.ObjectID{Bucket: a.Bucket, Key: a.Key})
	}
	return false, err
}

func (e *ingestEnv) probe(n int, tr *tracer) error {
	return commitProbe(e.probers, lobbyBucket, e.probes, n, tr)
}

func (e *ingestEnv) observers() ([]*observer, []*observer) { return e.cross, nil }

func (e *ingestEnv) registry() *obs.Registry { return e.cluster.Obs() }

func (e *ingestEnv) close() {
	for _, c := range append(e.devs, e.probers...) {
		if c != nil {
			c.Close()
		}
	}
	for _, r := range e.readers {
		r.Close()
	}
	e.cluster.Close()
	os.RemoveAll(e.dataDir)
}

// settle flushes the devices, then checks that every DC holding a bucket
// reads exactly the posts issued to each of its channels, and that no DC
// reported a WAL error.
func (e *ingestEnv) settle(deadline time.Time) []string {
	for _, c := range e.devs {
		if err := c.Flush(time.Until(deadline)); err != nil {
			return []string{fmt.Sprintf("%s: %v", c.Name(), err)}
		}
	}
	issued := e.issued.snapshot()
	var fails []string
	for i := 0; i < 3; i++ {
		d := e.cluster.DC(i)
		var ids []txn.ObjectID
		for _, b := range ingestInterest(i) {
			for _, ch := range ingestChannels(b) {
				ids = append(ids, txn.ObjectID{Bucket: b, Key: ch})
			}
		}
		fails = append(fails, waitPostsAt([]*dc.DC{d}, ids, issued, deadline)...)
		if err := d.LastWALError(); err != nil {
			fails = append(fails, fmt.Sprintf("%s: WAL: %v", d.Name(), err))
		}
	}
	return fails
}
