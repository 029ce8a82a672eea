package main

import (
	"fmt"
	"sync"
	"time"

	"colony/internal/bench"
	"colony/internal/chat"
	"colony/internal/core"
	"colony/internal/crdt"
	"colony/internal/dc"
	"colony/internal/edge"
	"colony/internal/obs"
	"colony/internal/txn"
)

// probeBucket holds the chat workloads' probe counters.
const probeBucket = "probe"

// issuedPosts counts the posts each channel was sent, by object.
type issuedPosts struct {
	mu sync.Mutex
	n  map[txn.ObjectID]int
}

func (p *issuedPosts) add(id txn.ObjectID) {
	p.mu.Lock()
	if p.n == nil {
		p.n = map[txn.ObjectID]int{}
	}
	p.n[id]++
	p.mu.Unlock()
}

func (p *issuedPosts) snapshot() map[txn.ObjectID]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[txn.ObjectID]int, len(p.n))
	for k, v := range p.n {
		out[k] = v
	}
	return out
}

// chatEnv runs the ColonyChat trace on 48 devices, attached directly to the
// DCs (chat) or through peer groups of 12 behind PoP parents (group-chat).
type chatEnv struct {
	dep     *bench.Deployment
	trace   *chat.Trace
	conns   []*core.Connection
	probers []*core.Connection // probe-only devices, outside the trace
	writers []*core.Connection
	probes  []*probeLog
	cross   []*observer
	same    []*observer
	issued  issuedPosts
}

func setupChat(seed int64, tr *chat.Trace, nProbes int, groups bool) (env, error) {
	mode := bench.ModeSwiftCloud
	if groups {
		mode = bench.ModeColony
	}
	dep, err := bench.Deploy(bench.DeployConfig{
		Mode: mode, DCs: 3, K: 2, Clients: chatDevices, GroupSize: groupSize,
		Trace: tr, Scale: simScale, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	e := &chatEnv{dep: dep, trace: tr, probes: newProbeLogs(nProbes)}
	for _, cl := range dep.Clients {
		e.conns = append(e.conns, cl.(*chat.EdgeClient).Conn())
	}
	if err := e.setupProbes(groups); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// setupProbes places the probe writers and observers. In chat, client i is
// attached to DC i mod 3: the writers are extra devices on DC 0 and clients
// 1 and 2 observe. In group-chat, group g's parent hangs off DC g mod 3: the
// writers are members of group 0 (clients 0, 2, 3, ...), clients 12 and 24
// (groups 1 and 2) observe from DCs 1 and 2, and client 1 observes inside
// the writers' group.
func (e *chatEnv) setupProbes(groups bool) error {
	cross, same := []int{1, 2}, []int(nil)
	if groups {
		e.writers = append(e.writers, e.conns[0])
		for i := 2; len(e.writers) < probeWriters; i++ {
			e.writers = append(e.writers, e.conns[i])
		}
		cross, same = []int{groupSize, 2 * groupSize}, []int{1}
	} else {
		for w := 0; w < probeWriters; w++ {
			conn, err := e.dep.Cluster.Connect(connectOpts(fmt.Sprintf("prober%d", w), 0))
			if err != nil {
				return err
			}
			e.probers = append(e.probers, conn)
		}
		e.writers = e.probers
	}
	if err := createProbes(e.writers[0], probeBucket, e.probes, clusterDCs(e.dep.Cluster)); err != nil {
		return err
	}
	for _, i := range cross {
		obs, err := watchProbes(e.conns[i], probeBucket, e.probes)
		if err != nil {
			return err
		}
		e.cross = append(e.cross, obs...)
	}
	for _, i := range same {
		obs, err := watchProbes(e.conns[i], probeBucket, e.probes)
		if err != nil {
			return err
		}
		e.same = append(e.same, obs...)
	}
	return waitKStable(clusterDCs(e.dep.Cluster), 30*time.Second)
}

// createProbes creates the probe counters from a device and waits until
// they are K-stable at every DC: the observers must hold them before the
// run, since a device applies pushed updates only to objects it holds.
func createProbes(conn *core.Connection, bucket string, logs []*probeLog, dcs []*dc.DC) error {
	err := conn.Update(func(tx *core.Tx) {
		for _, l := range logs {
			tx.Counter(bucket, l.key).Increment(0)
		}
	})
	if err == nil {
		err = conn.Flush(10 * time.Second)
	}
	if err == nil {
		err = waitKStable(dcs, 30*time.Second)
	}
	return err
}

// watchProbes subscribes a device to the probe counters in bucket and
// registers an observer on each.
func watchProbes(conn *core.Connection, bucket string, logs []*probeLog) ([]*observer, error) {
	keys := make([]string, len(logs))
	for i, l := range logs {
		keys[i] = l.key
	}
	if err := conn.Prefetch(bucket, keys...); err != nil {
		return nil, fmt.Errorf("probe prefetch at %s: %w", conn.Name(), err)
	}
	var out []*observer
	for _, l := range logs {
		id := txn.ObjectID{Bucket: bucket, Key: l.key}
		o := newObserver(conn.Name(), l, func() (int64, error) {
			v, err := conn.Node().Value(id, crdt.KindCounter)
			if err != nil {
				return 0, err
			}
			return v.(int64), nil
		})
		if err := holdProbe(o); err != nil {
			return nil, err
		}
		conn.OnUpdate(bucket, l.key, o.onUpdate)
		out = append(out, o)
	}
	return out, nil
}

// holdProbe reads the probe counter once before the run, which pulls it
// into the observer's cache if the subscription did not: the update
// callback must read from the cache, since a fetch from inside the delivery
// path would block it.
func holdProbe(o *observer) error {
	v, err := o.value()
	if err != nil {
		return fmt.Errorf("probe read at %s: %w", o.name, err)
	}
	if v != 0 {
		return fmt.Errorf("probe read at %s: %d before the run, want 0", o.name, v)
	}
	return nil
}

// clusterDCs lists a cluster's DCs.
func clusterDCs(c *core.Cluster) []*dc.DC {
	out := make([]*dc.DC, c.NumDCs())
	for i := range out {
		out[i] = c.DC(i)
	}
	return out
}

// waitKStable waits until the DCs' current states are K-stable at every DC.
func waitKStable(dcs []*dc.DC, timeout time.Duration) error {
	target := dcs[0].State()
	for _, d := range dcs[1:] {
		target = target.Join(d.State())
	}
	deadline := time.Now().Add(timeout)
	for _, d := range dcs {
		for !target.LEQ(d.Stable()) {
			if time.Now().After(deadline) {
				return fmt.Errorf("%s: populated state not K-stable within %v", d.Name(), timeout)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

func (e *chatEnv) do(a action, tr *tracer) (bool, error) {
	conn := e.conns[a.Client]
	switch a.Kind {
	case actPost:
		root := tr.begin(spAppPost)
		defer tr.end(root)
		return false, e.post(conn, a, tr)
	case actColdRead:
		root := tr.begin(spAppColdRead)
		defer tr.end(root)
		sp := tr.begin(spCoreEvict)
		conn.Evict(a.Bucket, a.Key)
		tr.end(sp)
		src, err := readChannel(conn, a.Bucket, a.Key, tr)
		return src != edge.SourceCache, err
	default:
		root := tr.begin(spAppRead)
		defer tr.end(root)
		src, err := readChannel(conn, a.Bucket, a.Key, tr)
		return src != edge.SourceCache, err
	}
}

// post appends a message to the channel and an event to the author's
// profile in one transaction, as ColonyChat's Post does.
func (e *chatEnv) post(conn *core.Connection, a action, tr *tracer) error {
	sp := tr.begin(spCoreBuild)
	tx := conn.StartTransaction()
	tx.Map(a.Bucket, a.Key).Seq("messages").Append(chat.Message{Author: conn.User(), Text: "m"}.Encode())
	tx.Map(chat.BucketUsers, conn.User()).Seq("events").Append("posted:" + a.Key)
	tr.end(sp)
	sp = tr.begin(spEdgeCommit)
	err := tx.Commit()
	tr.end(sp)
	if err == nil {
		e.issued.add(txn.ObjectID{Bucket: a.Bucket, Key: a.Key})
	}
	return err
}

// readChannel reads and decodes a channel in one transaction and returns
// the hit class that served it.
func readChannel(conn *core.Connection, bucket, key string, tr *tracer) (edge.ReadSource, error) {
	tx := conn.StartTransaction()
	sp := tr.begin(spEdgeReadCache)
	obj, src, err := tx.ReadObjectTracked(bucket, key, crdt.KindORMap)
	switch src {
	case edge.SourceGroup:
		tr.endAs(sp, spEdgeReadGroup)
	case edge.SourceDC:
		tr.endAs(sp, spEdgeReadDC)
	default:
		tr.end(sp)
	}
	if err != nil {
		return src, err
	}
	if _, err := messagesIn(obj); err != nil {
		return src, err
	}
	sp = tr.begin(spEdgeCommitRead)
	err = tx.Commit()
	tr.end(sp)
	return src, err
}

// messagesIn decodes a channel map's messages.
func messagesIn(obj crdt.Object) ([]chat.Message, error) {
	m, ok := obj.(*crdt.ORMap)
	if !ok {
		return nil, fmt.Errorf("channel is a %v, want a map", obj.Kind())
	}
	seq, _ := m.Get("messages").(*crdt.RGA)
	if seq == nil {
		return nil, nil
	}
	elems := seq.Elements()
	out := make([]chat.Message, 0, len(elems))
	for _, el := range elems {
		msg, err := chat.DecodeMessage(el.Value)
		if err != nil {
			return nil, err
		}
		out = append(out, msg)
	}
	return out, nil
}

func (e *chatEnv) probe(n int, tr *tracer) error {
	return commitProbe(e.writers, probeBucket, e.probes, n, tr)
}

// commitProbe commits probe n from its writer's device.
func commitProbe(writers []*core.Connection, bucket string, logs []*probeLog, n int, tr *tracer) error {
	w, k := probeSlot(n)
	root := tr.begin(spAppProbe)
	defer tr.end(root)
	tx := writers[w].StartTransaction()
	tx.Counter(bucket, logs[w].key).Increment(1)
	sp := tr.begin(spEdgeCommit)
	logs[w].stamp(k)
	err := tx.Commit()
	tr.end(sp)
	return err
}

func (e *chatEnv) observers() ([]*observer, []*observer) { return e.cross, e.same }

func (e *chatEnv) registry() *obs.Registry { return e.dep.Cluster.Obs() }

func (e *chatEnv) close() {
	for _, c := range e.probers {
		c.Close()
	}
	e.dep.Close()
}

func (e *chatEnv) settle(deadline time.Time) []string {
	for _, c := range e.conns {
		if err := c.Flush(time.Until(deadline)); err != nil {
			return []string{fmt.Sprintf("%s: %v", c.Name(), err)}
		}
	}
	issued := e.issued.snapshot()
	var ids []txn.ObjectID
	for w := 0; w < e.trace.Config.Workspaces; w++ {
		for _, key := range chat.Channels(e.trace.Config, chat.WorkspaceName(w)) {
			ids = append(ids, txn.ObjectID{Bucket: chat.BucketChannels, Key: key})
		}
	}
	dcs := clusterDCs(e.dep.Cluster)
	fails := waitPostsAt(dcs, ids, issued, deadline)
	for _, d := range dcs {
		fails = append(fails, checkMembership(d, e.trace)...)
	}
	return fails
}

// waitPostsAt polls until every DC in dcs reads exactly issued[id] messages
// in each channel id, and reports the channels that still differ at the
// deadline.
func waitPostsAt(dcs []*dc.DC, ids []txn.ObjectID, issued map[txn.ObjectID]int, deadline time.Time) []string {
	for {
		var fails []string
		for _, d := range dcs {
			for _, id := range ids {
				got, err := postsAt(d, id)
				if err != nil {
					fails = append(fails, fmt.Sprintf("%s %v: %v", d.Name(), id, err))
				} else if got != issued[id] {
					fails = append(fails, fmt.Sprintf("%s %v: %d posts, want %d", d.Name(), id, got, issued[id]))
				}
			}
		}
		if len(fails) == 0 || time.Now().After(deadline) {
			return fails
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// postsAt counts the messages a DC holds for a channel.
func postsAt(d *dc.DC, id txn.ObjectID) (int, error) {
	obj, err := d.ReadAt(id, d.State())
	if err != nil {
		return 0, err
	}
	msgs, err := messagesIn(obj)
	return len(msgs), err
}

// checkMembership verifies ColonyChat's invariant at one DC: a user is in a
// workspace's member set exactly when the workspace is in the user's
// profile.
func checkMembership(d *dc.DC, tr *chat.Trace) []string {
	var fails []string
	at := d.State()
	setOf := func(id txn.ObjectID, key string) (*crdt.ORSet, error) {
		obj, err := d.ReadAt(id, at)
		if err != nil {
			return nil, err
		}
		m, ok := obj.(*crdt.ORMap)
		if !ok {
			return nil, fmt.Errorf("%v is a %v, want a map", id, obj.Kind())
		}
		s, _ := m.Get(key).(*crdt.ORSet)
		if s == nil {
			return nil, fmt.Errorf("%v has no %q set", id, key)
		}
		return s, nil
	}
	for w := 0; w < tr.Config.Workspaces; w++ {
		ws := chat.WorkspaceName(w)
		users, err := setOf(chat.WorkspaceID(ws), "users")
		if err != nil {
			fails = append(fails, fmt.Sprintf("%s: %v", d.Name(), err))
			continue
		}
		for u := range tr.Membership {
			user := chat.UserName(u)
			wss, err := setOf(chat.UserID(user), "workspaces")
			if err != nil {
				fails = append(fails, fmt.Sprintf("%s: %v", d.Name(), err))
				continue
			}
			if users.Contains(user) != wss.Contains(ws) {
				fails = append(fails, fmt.Sprintf("%s: %s in %s.users=%v but %s in %s.workspaces=%v",
					d.Name(), user, ws, users.Contains(user), ws, user, wss.Contains(ws)))
			}
		}
	}
	return fails
}
