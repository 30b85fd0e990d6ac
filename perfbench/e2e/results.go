package e2e

import (
	"embed"
	"encoding/json"
	"fmt"
	"path"
	"sync"

	"isacmp"
)

// CellRecord is the canonical result of one (workload, target) cell:
// every output the correctness checks compare. Fields a workload does
// not compute stay empty.
type CellRecord struct {
	Workload     string        `json:"workload"`
	Target       string        `json:"target"`
	PathLen      uint64        `json:"path_len"`
	Kernels      []NamedCount  `json:"kernels,omitempty"`
	Other        uint64        `json:"other,omitempty"`
	CP           uint64        `json:"cp,omitempty"`
	ScaledCP     uint64        `json:"scaled_cp,omitempty"`
	Windows      []WindowPoint `json:"windows,omitempty"`
	FusedPathLen uint64        `json:"fused_path_len,omitempty"`
	Mix          []NamedCount  `json:"mix,omitempty"`
	Error        string        `json:"error,omitempty"`
}

// NamedCount is one per-kernel or per-group count.
type NamedCount struct {
	Name  string `json:"name"`
	Count uint64 `json:"count"`
}

// WindowPoint is one windowed-CP series point.
type WindowPoint struct {
	Size   int     `json:"size"`
	MeanCP float64 `json:"mean_cp"`
}

// Record converts a matrix row into its canonical record.
func Record(workload string, r *isacmp.MatrixRow) CellRecord {
	rec := CellRecord{Workload: workload, Target: r.Target.String()}
	if r.Failed() {
		rec.Error = r.Failure.Reason + ": " + r.Failure.Message
		return rec
	}
	rec.PathLen, rec.Other = r.PathLen, r.Other
	rec.CP, rec.ScaledCP = r.CP, r.ScaledCP
	for _, k := range r.Regions {
		rec.Kernels = append(rec.Kernels, NamedCount{k.Name, k.Count})
	}
	for _, w := range r.Windows {
		rec.Windows = append(rec.Windows, WindowPoint{w.Size, w.MeanCP})
	}
	if r.Fusion != nil {
		rec.FusedPathLen = r.Fusion.EventsOut
	}
	for _, g := range r.MixCounts {
		if g.Count != 0 {
			rec.Mix = append(rec.Mix, NamedCount{g.Group.String(), g.Count})
		}
	}
	return rec
}

// Records converts a matrix result into canonical records, in cell
// order.
func Records(progs []*isacmp.Program, rows [][]isacmp.MatrixRow) []CellRecord {
	var recs []CellRecord
	for i, p := range progs {
		for j := range rows[i] {
			recs = append(recs, Record(p.Name, &rows[i][j]))
		}
	}
	return recs
}

// Key is a record's identity: its canonical JSON encoding.
func Key(r CellRecord) string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// RetiredInstructions is the raw (pre-fusion) retired instruction
// count of a set of records.
func RetiredInstructions(recs []CellRecord) uint64 {
	var n uint64
	for _, r := range recs {
		n += r.PathLen
	}
	return n
}

//go:embed expected/*.json
var expectedFS embed.FS

// Expected returns the committed default-seed records of a workload.
func Expected(workload string) ([]CellRecord, error) {
	data, err := expectedFS.ReadFile(path.Join("expected", workload+".json"))
	if err != nil {
		return nil, err
	}
	var recs []CellRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("expected/%s.json: %w", workload, err)
	}
	return recs, nil
}

// EncodeExpected renders records in the expected-file format.
func EncodeExpected(recs []CellRecord) ([]byte, error) {
	b, err := json.MarshalIndent(recs, "", "  ")
	return append(b, '\n'), err
}

// Invariants checks the properties every seed's results must have.
func Invariants(s Spec, r CellRecord) error {
	if r.Error != "" {
		return fmt.Errorf("cell failed: %s", r.Error)
	}
	if r.PathLen == 0 {
		return fmt.Errorf("no instructions retired")
	}
	a := s.Analyses
	if a.PathLength {
		sum := r.Other
		for _, k := range r.Kernels {
			sum += k.Count
		}
		if sum != r.PathLen {
			return fmt.Errorf("kernel counts sum to %d, path length is %d", sum, r.PathLen)
		}
	}
	if a.Mix {
		var sum uint64
		for _, g := range r.Mix {
			sum += g.Count
		}
		if sum != r.PathLen {
			return fmt.Errorf("mix counts sum to %d, path length is %d", sum, r.PathLen)
		}
	}
	length := r.PathLen
	if a.Fusion.Enabled() {
		if r.FusedPathLen == 0 || r.FusedPathLen > r.PathLen {
			return fmt.Errorf("fused path length %d not in (0, %d]", r.FusedPathLen, r.PathLen)
		}
		length = r.FusedPathLen
	}
	if a.CritPath && (r.CP == 0 || r.CP > length) {
		return fmt.Errorf("CP %d not in (0, %d]", r.CP, length)
	}
	if a.Windowed {
		for _, w := range r.Windows {
			if limit := float64(min(uint64(w.Size), r.CP)); w.MeanCP > limit {
				return fmt.Errorf("window %d: mean CP %g > min(W, CP) = %g", w.Size, w.MeanCP, limit)
			}
		}
	}
	return nil
}

// Verify runs every cell's binary on the emulation core and compares
// its final arrays with the IR host interpreter, on up to workers
// goroutines. It returns one error (nil when correct) per cell, in
// record order.
func Verify(progs []*isacmp.Program, workers int) []error {
	targets := isacmp.Targets()
	errs := make([]error, len(progs)*len(targets))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < max(1, workers); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				bin, err := isacmp.Compile(progs[k/len(targets)], targets[k%len(targets)])
				if err == nil {
					err = bin.Verify()
				}
				errs[k] = err
			}
		}()
	}
	for k := range errs {
		jobs <- k
	}
	close(jobs)
	wg.Wait()
	return errs
}
