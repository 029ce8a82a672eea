package main

import (
	"fmt"
	"math/rand"
	"time"

	"colony/internal/chat"
)

// actKind classifies one scheduled user action.
type actKind uint8

const (
	// actRead reads a channel the device keeps warm (normally a cache hit).
	actRead actKind = iota + 1
	// actColdRead evicts a channel and reads it again, so the group or the
	// DC serves it (the trace's ~10% cold reads).
	actColdRead
	// actPost appends a message to a channel from a device.
	actPost
	// actRemoteRead runs a read transaction at a DC on behalf of a client
	// without a cache (ingest, mesh).
	actRemoteRead
	// actDCCommit commits a counter increment directly on a DC (mesh).
	actDCCommit
)

// action is one generated user action. Client indexes the acting device,
// or the DC for actRemoteRead and actDCCommit.
type action struct {
	Kind   actKind
	Client int
	Bucket string
	Key    string
}

// event is one schedule slot: an action (Probe == 0) or the Probe-th
// visibility probe.
type event struct {
	At     time.Duration
	Action int
	Probe  int
}

// buildSchedule spreads nActions actions and nProbes probes evenly over the
// window. Even spacing keeps the offered load constant through the run; the
// seed varies only what each action does, never when it is due.
func buildSchedule(nActions, nProbes int, window time.Duration) []event {
	events := make([]event, 0, nActions+nProbes)
	ai, pi := 0, 0
	actAt := func(i int) time.Duration { return time.Duration(int64(window) * int64(i) / int64(nActions)) }
	probeAt := func(i int) time.Duration {
		return time.Duration(int64(window) * (2*int64(i) + 1) / (2 * int64(nProbes)))
	}
	for ai < nActions || pi < nProbes {
		if pi >= nProbes || (ai < nActions && actAt(ai) <= probeAt(pi)) {
			events = append(events, event{At: actAt(ai), Action: ai})
			ai++
			continue
		}
		events = append(events, event{At: probeAt(pi), Probe: pi + 1})
		pi++
	}
	return events
}

// Workload population sizes. The chat workloads keep the trace's 48 users on
// 48 devices, the paper's peer-group size of 12, and its 3 workspaces of 20
// channels.
const (
	chatDevices   = 48
	groupSize     = 12
	ingestDevices = 48
	ingestHomeWS  = 2 // workspace buckets homed on each DC
	ingestChans   = 8 // channels per workspace bucket
	lobbyChans    = 4
	meshBuckets   = 64
)

// traceSlices is how many distinct action sequences the chat workloads draw
// from one population.
const traceSlices = 16

// chatTrace generates the ColonyChat trace for the chat workloads: the
// paper's statistics over 48 users, n actions. The population (memberships
// and Pareto activity weights) is the same for every seed; the seed picks
// which n consecutive actions of a longer trace run. With only 48 users the
// heaviest users' memberships would otherwise change per-op costs by more
// than run-to-run noise from one seed to the next.
func chatTrace(seed int64, n int) *chat.Trace {
	slice := int(uint64(seed) % traceSlices)
	cfg := chat.DefaultTraceConfig(1, (slice+1)*n, 1)
	cfg.Users = chatDevices
	tr := chat.Generate(cfg)
	tr.Actions = tr.Actions[slice*n:]
	return tr
}

// chatActions maps the trace onto benchmark actions. A refresh re-reads a
// channel the subscription keeps fresh, so it is a read; a cold read is an
// evict-and-fetch.
func chatActions(tr *chat.Trace) []action {
	out := make([]action, len(tr.Actions))
	for i, a := range tr.Actions {
		kind := actRead
		switch {
		case a.Type == chat.ActPost:
			kind = actPost
		case a.Type == chat.ActRead && a.Cold:
			kind = actColdRead
		}
		out[i] = action{Kind: kind, Client: a.User, Bucket: chat.BucketChannels, Key: chat.ChannelKey(a.Workspace, a.Channel)}
	}
	return out
}

// ingestBucket names workspace bucket j homed on DC i.
func ingestBucket(dc, j int) string { return fmt.Sprintf("d%dws%d", dc, j) }

// lobbyBucket is the one bucket every DC wants.
const lobbyBucket = "lobby"

// ingestActions generates the ingest mix: as many posts as remote reads. A
// post goes to one of the device's home channels, or with probability 0.15
// to a lobby channel; a remote read runs at a DC against one of that DC's
// home channels. The reads are cheap next to the posts, and as many as the
// posts give the remote-read percentiles enough samples.
func ingestActions(seed int64, n int) []action {
	rng := rand.New(rand.NewSource(seed))
	out := make([]action, n)
	for i := range out {
		if rng.Intn(2) == 0 {
			dc := rng.Intn(3)
			out[i] = action{Kind: actRemoteRead, Client: dc,
				Bucket: ingestBucket(dc, rng.Intn(ingestHomeWS)), Key: chat.ChannelName(rng.Intn(ingestChans))}
			continue
		}
		dev := rng.Intn(ingestDevices)
		a := action{Kind: actPost, Client: dev}
		if rng.Float64() < 0.15 {
			a.Bucket, a.Key = lobbyBucket, chat.ChannelName(rng.Intn(lobbyChans))
		} else {
			a.Bucket, a.Key = ingestBucket(dev%3, rng.Intn(ingestHomeWS)), chat.ChannelName(rng.Intn(ingestChans))
		}
		out[i] = a
	}
	return out
}

// meshBucket names counter bucket b of the mesh workload.
func meshBucket(b int) string { return fmt.Sprintf("b%02d", b) }

// meshActions generates the mesh mix: nine DC-side counter commits, spread
// uniformly over the DCs and 64 buckets, for every read run at a DC by an
// edge node.
func meshActions(seed int64, n int) []action {
	rng := rand.New(rand.NewSource(seed))
	out := make([]action, n)
	for i := range out {
		kind := actDCCommit
		if rng.Intn(10) == 0 {
			kind = actRemoteRead
		}
		out[i] = action{Kind: kind, Client: rng.Intn(3), Bucket: meshBucket(rng.Intn(meshBuckets)), Key: "ctr"}
	}
	return out
}
