package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's own files around the call into the layer. Spans of one
// request (a simulation pass, an object, a fetch) share Req. A span with
// Count > 0 aggregates that many intervals (per-packet callbacks, per-call
// socket reads) into their total DurNs. Track "server" marks spans that ran
// on another goroutine in parallel with their parent; they are reported but
// never subtracted from the parent's self time.
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Track   string `json:"track,omitempty"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Count   int64  `json:"count,omitempty"`
}

// tracer keeps spans in memory; a nil tracer records nothing, so untraced
// iterations pay one branch per boundary.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span and returns its ID (0 on a nil tracer).
func (t *tracer) add(name string, parent, req int, start time.Time, dur time.Duration, count int64) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent, Req: req,
		StartNs: start.Sub(t.epoch).Nanoseconds(), DurNs: dur.Nanoseconds(), Count: count,
	})
	return id
}

// setDur closes a span opened with a zero duration.
func (t *tracer) setDur(id int, dur time.Duration) {
	if t != nil && id > 0 {
		t.spans[id-1].DurNs = dur.Nanoseconds()
	}
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// timeRow is one row of the "where the time goes" table.
type timeRow struct {
	Name  string
	SelfS float64
	Count int64
}

// estimate carves a named share out of one span's self time using an
// isolation probe; what the probes do not explain stays under Rest.
type estimate struct {
	Span  string
	Parts []timeRow
	Rest  string
}

// rowSet accumulates rows by span name, in first-seen order.
type rowSet struct {
	byName map[string]*timeRow
	rows   []*timeRow
}

func (rs *rowSet) add(s span, selfNs int64) {
	r, ok := rs.byName[s.Name]
	if !ok {
		if rs.byName == nil {
			rs.byName = map[string]*timeRow{}
		}
		r = &timeRow{Name: s.Name}
		rs.byName[s.Name] = r
		rs.rows = append(rs.rows, r)
	}
	r.SelfS += float64(selfNs) / 1e9
	r.Count += max(s.Count, 1)
}

// selfTimes reduces the spans under root to self time per span name: a
// span's duration minus the part its same-track children cover. The rows
// sum to root's duration by construction; the caller checks that against
// the measured run time.
func selfTimes(spans []span, root int, est *estimate) []timeRow {
	children := map[int][]int{}
	for i, s := range spans {
		children[s.Parent] = append(children[s.Parent], i)
	}
	var set rowSet
	var walk func(i int)
	walk = func(i int) {
		s := spans[i]
		self := s.DurNs
		for _, c := range children[s.ID] {
			if spans[c].Track == "" {
				self -= spans[c].DurNs
				walk(c)
			}
		}
		set.add(s, self)
	}
	walk(root - 1)
	var rows []timeRow
	for _, r := range set.rows {
		if est != nil && est.Span == r.Name {
			rest := r.SelfS
			for _, p := range est.Parts {
				rows = append(rows, p)
				rest -= p.SelfS
			}
			rows = append(rows, timeRow{Name: est.Rest, SelfS: rest, Count: r.Count})
			continue
		}
		rows = append(rows, *r)
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].SelfS > rows[j].SelfS })
	return rows
}

// printTimeTable prints the rows and how far their sum is from the traced
// run time.
func printTimeTable(w io.Writer, title string, rows []timeRow, runS float64) {
	fmt.Fprintf(w, "\nwhere the time goes: %s (traced run_s %.4f s)\n", title, runS)
	fmt.Fprintf(w, "  %-44s %10s %7s %10s\n", "span (self time)", "s", "share", "count")
	sum := 0.0
	for _, r := range rows {
		sum += r.SelfS
		fmt.Fprintf(w, "  %-44s %10.4f %6.1f%% %10d\n", r.Name, r.SelfS, 100*r.SelfS/runS, r.Count)
	}
	fmt.Fprintf(w, "  %-44s %10.4f %6.1f%%  (gap to run_s %+.2f%%)\n", "sum", sum, 100*sum/runS, 100*(sum-runS)/runS)
}

// serverRows totals the parallel-track spans, which the self-time table
// leaves out.
func serverRows(spans []span) []timeRow {
	var set rowSet
	for _, s := range spans {
		if s.Track != "" {
			set.add(s, s.DurNs)
		}
	}
	var rows []timeRow
	for _, r := range set.rows {
		rows = append(rows, *r)
	}
	return rows
}
