package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// spanName identifies a span recorded around one call into a layer.
type spanName uint8

// The spans. Root spans cover one whole action as the benchmark runs it
// (the application's own work: building and decoding chat messages); child
// spans cover a single call into core, edge or dc. The core.Tx read and
// commit calls delegate straight to edge.Tx, so their spans carry the edge
// layer's name.
const (
	spAppRead spanName = iota
	spAppColdRead
	spAppPost
	spAppRemoteRead
	spAppDCTx
	spAppProbe
	spCoreEvict
	spCoreBuild
	spCoreCloud
	spEdgeReadCache
	spEdgeReadGroup
	spEdgeReadDC
	spEdgeCommit
	spEdgeCommitRead
	spTransportCall
	spDCBegin
	spDCCommit
	numSpanNames
)

var spanInfo = [numSpanNames]struct{ name, layer string }{
	spAppRead:        {"app.read", "app"},
	spAppColdRead:    {"app.cold_read", "app"},
	spAppPost:        {"app.post", "app"},
	spAppRemoteRead:  {"app.remote_read", "app"},
	spAppDCTx:        {"app.dc_tx", "app"},
	spAppProbe:       {"app.probe", "app"},
	spCoreEvict:      {"core.evict", "core"},
	spCoreBuild:      {"core.build", "core"},
	spCoreCloud:      {"core.cloud_do", "core"},
	spEdgeReadCache:  {"edge.read_cache", "edge"},
	spEdgeReadGroup:  {"edge.read_group", "edge"},
	spEdgeReadDC:     {"edge.read_dc", "edge"},
	spEdgeCommit:     {"edge.commit", "edge"},
	spEdgeCommitRead: {"edge.commit_read", "edge"},
	spTransportCall:  {"transport.call", "transport"},
	spDCBegin:        {"dc.begin", "dc"},
	spDCCommit:       {"dc.commit", "dc"},
}

// span is one recorded interval. Spans of one action share Event (the
// schedule slot); Parent is the index of the enclosing span, or -1.
type span struct {
	Name       spanName
	Event      int32
	Parent     int32
	Start, End int64 // nanoseconds since the tracer's base
}

// tracer records spans for one driver goroutine, in memory. A nil tracer
// records nothing, so untraced runs execute the same code.
type tracer struct {
	base  time.Time
	event int32
	spans []span
	open  []int32
}

func newTracer(base time.Time, capacity int) *tracer {
	return &tracer{base: base, spans: make([]span, 0, capacity)}
}

// begin opens a span under the innermost open span and returns its handle.
func (t *tracer) begin(name spanName) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Event: t.event, Parent: parent, Start: int64(time.Since(t.base))})
	t.open = append(t.open, id)
	return id
}

// end closes span id, the innermost open span.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.base))
	t.open = t.open[:len(t.open)-1]
}

// endAs closes span id under a name decided by the call's outcome (the hit
// class of a read).
func (t *tracer) endAs(id int32, name spanName) {
	if t == nil {
		return
	}
	t.spans[id].Name = name
	t.end(id)
}

// spanStats summarises the spans of several tracers.
type spanStats struct {
	// dur holds each span name's durations.
	dur [numSpanNames]durations
	// selfByLayer sums self time (duration minus the time covered by the
	// span's children) per layer.
	selfByLayer map[string]time.Duration
}

func summarizeSpans(tracers []*tracer) spanStats {
	st := spanStats{selfByLayer: map[string]time.Duration{}}
	for _, t := range tracers {
		child := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range t.spans {
			d := time.Duration(s.End - s.Start)
			st.dur[s.Name] = append(st.dur[s.Name], d)
			st.selfByLayer[spanInfo[s.Name].layer] += d - time.Duration(child[i])
		}
	}
	return st
}

// writeSpans writes every span as one JSON object per line.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for d, t := range tracers {
		for i, s := range t.spans {
			fmt.Fprintf(w, `{"driver":%d,"id":%d,"parent":%d,"event":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				d, i, s.Parent, s.Event, spanInfo[s.Name].name, s.Start, s.End)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
