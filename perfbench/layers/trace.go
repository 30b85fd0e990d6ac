package layers

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Span names: one per layer boundary the traced run times.
const (
	spanGen     = "ir.gen"
	spanCell    = "cell"
	spanCompile = "cc.Compile"
	spanLoad    = "simeng.load"
	spanStepA64 = "simeng.a64.StepN"
	spanStepRV  = "simeng.rv64.StepN"
	spanFusion  = "fusion"
	spanRender  = "report.render"
)

// Span is one timed call into a layer. Parent is the innermost
// enclosing span (-1 for the roots: program generation, cells and
// rendering); Cell is the enclosing cell span (-1 outside cells).
// Times are nanoseconds since the trace started.
type Span struct {
	ID, Parent, Cell int32
	Name             string
	Worker           int
	Start, End       int64
}

// recorder collects the spans of one goroutine. A nil recorder
// records nothing, which is the untraced run.
type recorder struct {
	worker int
	base   time.Time
	spans  []Span
	stack  []int32 // open spans, innermost last
	cell   int32
}

func newRecorder(worker int, base time.Time) *recorder {
	return &recorder{worker: worker, base: base, cell: -1}
}

// begin opens a span under the innermost open one.
func (r *recorder) begin(name string) int32 {
	if r == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent, Cell: r.cell, Name: name, Worker: r.worker,
		Start: time.Since(r.base).Nanoseconds(),
	})
	r.stack = append(r.stack, id)
	if name == spanCell {
		r.cell = id
		r.spans[id].Cell = id
	}
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	r.spans[id].End = time.Since(r.base).Nanoseconds()
	r.stack = r.stack[:len(r.stack)-1]
	if r.spans[id].Name == spanCell {
		r.cell = -1
	}
}

// selfTimes sums each span name's self time — duration minus the
// time its direct children cover — over the spans of one recorder,
// and returns the summed duration of the root spans with it.
func selfTimes(spans []Span, self map[string]int64) (rootNs int64) {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		} else {
			rootNs += s.End - s.Start
		}
	}
	for i, s := range spans {
		self[s.Name] += s.End - s.Start - child[i]
	}
	return rootNs
}

// newTraceID returns a random per-run trace identifier.
func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// WriteTrace writes spans as a Chrome trace-event file (viewable in
// Perfetto or chrome://tracing); span identity, parent, cell and the
// trace id ride in each event's args. Span ids are unique per worker,
// so they are written as "worker.id".
func WriteTrace(path, traceID string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type args struct {
		Trace  string `json:"trace"`
		ID     int32  `json:"id"`
		Parent int32  `json:"parent"`
		Cell   int32  `json:"cell"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args args    `json:"args"`
	}
	// Write errors stick in w; Flush reports the first.
	enc := json.NewEncoder(w)
	w.WriteString(`{"traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			w.WriteString(",")
		}
		enc.Encode(event{
			Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Worker, Args: args{Trace: traceID, ID: s.ID, Parent: s.Parent, Cell: s.Cell},
		})
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
