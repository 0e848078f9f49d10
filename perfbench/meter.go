package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// spanRec is one span around a call the benchmark makes into the
// program. Times are host nanoseconds since the span log was created.
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, which is how the untimed paths stay free of tracing cost.
type spanLog struct {
	t0    time.Time
	spans []spanRec
}

func newSpanLog() *spanLog {
	//lint:allow nowallclock host-time origin of the benchmark's own spans; never read by the simulation
	return &spanLog{t0: time.Now()}
}

func (l *spanLog) start(name string, parent, job int) int {
	if l == nil {
		return 0
	}
	//lint:allow nowallclock span start in host time, recorded outside the simulation
	l.spans = append(l.spans, spanRec{ID: len(l.spans) + 1, Parent: parent, Job: job, Name: name, Start: time.Since(l.t0).Nanoseconds()})
	return len(l.spans)
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	//lint:allow nowallclock span end in host time, recorded outside the simulation
	l.spans[id-1].End = time.Since(l.t0).Nanoseconds()
}

func (l *spanLog) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// meter times the calls one job makes into the program. Only the calls
// wrapped in timed count toward the job's host time and allocations; the
// benchmark's own checks around them do not.
type meter struct {
	spans *spanLog
	job   int // job id, for spans
	root  int // the current job's root span

	elapsed time.Duration
	allocs  uint64
	bytes   uint64
	ms      runtime.MemStats
}

// begin starts a new job.
func (m *meter) begin(job int, name string) {
	m.job, m.elapsed, m.allocs, m.bytes = job, 0, 0, 0
	m.root = m.spans.start(name, 0, job)
}

func (m *meter) finish() { m.spans.end(m.root) }

// timed runs fn, a call into the program, and adds its host time and heap
// allocations to the current job.
func (m *meter) timed(name string, fn func()) {
	runtime.ReadMemStats(&m.ms)
	allocs, bytes := m.ms.Mallocs, m.ms.TotalAlloc
	id := m.spans.start(name, m.root, m.job)
	//lint:allow nowallclock host time of a call into the simulator is what the benchmark measures; the simulation never reads it
	t0 := time.Now()
	fn()
	//lint:allow nowallclock see above
	m.elapsed += time.Since(t0)
	m.spans.end(id)
	runtime.ReadMemStats(&m.ms)
	m.allocs += m.ms.Mallocs - allocs
	m.bytes += m.ms.TotalAlloc - bytes
}

// span runs fn, untimed, inside a span: the benchmark's own work on the
// program's output, such as serializing an export for the digest.
func (m *meter) span(name string, fn func()) {
	id := m.spans.start(name, m.root, m.job)
	fn()
	m.spans.end(id)
}
