package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"isacmp/internal/simeng"
)

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "v2" {
		t.Fatalf("got %q, %v", data, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp files left behind: %v", ents)
	}
}

func appendAll(t *testing.T, dir string, recs ...Record) {
	t.Helper()
	j, err := OpenJournal(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	payload := json.RawMessage(`{"path_len":123}`)
	appendAll(t, dir,
		Record{Type: RecStarted, Workload: "lbm", Target: "rv64", Hash: "h1"},
		Record{Type: RecFinished, Workload: "lbm", Target: "rv64", Hash: "h1", Payload: payload},
		Record{Type: RecFailed, Workload: "stream", Target: "a64", Hash: "h2", Payload: json.RawMessage(`[{"reason":"decode"}]`)},
		Record{Type: RecComplete},
	)
	rp, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Records != 4 || !rp.Complete || rp.TornTail || rp.Dups != 0 {
		t.Fatalf("replay = %+v", rp)
	}
	rec := rp.Lookup("lbm", "rv64")
	if rec == nil || rec.Type != RecFinished || !bytes.Equal(rec.Payload, payload) {
		t.Fatalf("lookup finished = %+v", rec)
	}
	if rec := rp.Lookup("stream", "a64"); rec == nil || rec.Type != RecFailed {
		t.Fatalf("lookup failed = %+v", rec)
	}
	if rp.Lookup("spmv", "rv64") != nil {
		t.Fatal("phantom cell")
	}
}

func TestReplayEmptyJournal(t *testing.T) {
	rp, err := ReplayJournal(t.TempDir()) // no journal file at all
	if err != nil {
		t.Fatal(err)
	}
	if rp.Records != 0 || rp.Complete || rp.TornTail {
		t.Fatalf("replay = %+v", rp)
	}
	rp, err = ReplayData([]byte("\n\n"))
	if err != nil || rp.Records != 0 {
		t.Fatalf("blank lines: %+v, %v", rp, err)
	}
}

func TestReplayTornTail(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, dir,
		Record{Type: RecFinished, Workload: "lbm", Target: "rv64", Hash: "h1", Payload: json.RawMessage(`{"a":1}`)},
		Record{Type: RecFinished, Workload: "lbm", Target: "a64", Hash: "h2", Payload: json.RawMessage(`{"a":2}`)},
	)
	data, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	// A SIGKILL mid-append leaves a prefix of the final line.
	torn := data[:len(data)-7]
	rp, err := ReplayData(torn)
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	if !rp.TornTail || rp.Records != 1 {
		t.Fatalf("replay = %+v", rp)
	}
	if rp.Lookup("lbm", "rv64") == nil {
		t.Fatal("intact record lost")
	}
	if rp.Lookup("lbm", "a64") != nil {
		t.Fatal("torn record must be re-run, not trusted")
	}
}

func TestReplayMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, dir,
		Record{Type: RecFinished, Workload: "lbm", Target: "rv64", Hash: "h1"},
		Record{Type: RecFinished, Workload: "lbm", Target: "a64", Hash: "h2"},
	)
	data, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the FIRST record: a bad line with valid
	// records after it is corruption, not a torn tail.
	i := bytes.IndexByte(data, '4') // inside "rv64"
	data[i] = '9'
	if _, err := ReplayData(data); err == nil {
		t.Fatal("mid-file corruption must be an error")
	} else if !errors.Is(err, simeng.ErrIO) {
		t.Fatalf("want ErrIO, got %v", err)
	}
}

func TestReplayDuplicateFinished(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, dir,
		Record{Type: RecFinished, Workload: "lbm", Target: "rv64", Hash: "h1", Payload: json.RawMessage(`{"first":true}`)},
		Record{Type: RecFinished, Workload: "lbm", Target: "rv64", Hash: "h1", Payload: json.RawMessage(`{"first":false}`)},
	)
	rp, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Dups != 1 {
		t.Fatalf("dups = %d", rp.Dups)
	}
	rec := rp.Lookup("lbm", "rv64")
	if rec == nil || !strings.Contains(string(rec.Payload), `"first":true`) {
		t.Fatalf("duplicate must keep first record, got %s", rec.Payload)
	}
}

func TestReplayRejectsNonIncreasingSeq(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, dir,
		Record{Type: RecFinished, Workload: "lbm", Target: "rv64", Hash: "h1"},
		Record{Type: RecFinished, Workload: "lbm", Target: "a64", Hash: "h2"},
	)
	data, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte{'\n'})
	// Replaying the same line twice (valid checksum, stale seq) must
	// not double-apply.
	dup := append(append([]byte{}, data...), lines[0]...)
	if _, err := ReplayData(dup); err == nil {
		t.Fatal("replayed stale sequence must be rejected")
	}
}

func TestCompactDropsTornTailAndComplete(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, dir,
		Record{Type: RecStarted, Workload: "lbm", Target: "rv64", Hash: "h1"},
		Record{Type: RecFinished, Workload: "lbm", Target: "rv64", Hash: "h1", Payload: json.RawMessage(`{"a":1}`)},
		Record{Type: RecComplete},
	)
	f, err := os.OpenFile(JournalPath(dir), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":"isacmp/journal/v1","seq":3,"ty`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	rp, err := ReplayJournal(dir)
	if err != nil || !rp.TornTail {
		t.Fatalf("replay = %+v, %v", rp, err)
	}
	next, err := Compact(dir, rp)
	if err != nil {
		t.Fatal(err)
	}
	if next != 1 {
		t.Fatalf("next seq = %d", next)
	}
	rp2, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rp2.TornTail || rp2.Complete || rp2.Records != 1 {
		t.Fatalf("compacted replay = %+v", rp2)
	}
	if rp2.Lookup("lbm", "rv64") == nil {
		t.Fatal("finished record lost in compaction")
	}
}

func TestCacheRoundTrip(t *testing.T) {
	c, err := OpenCache(CachePath(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	hash := KeyInput{Engine: EngineVersion, Workload: "lbm", Target: "rv64", Code: []byte{1, 2, 3}}.Hash()
	if _, ok := c.Get(hash); ok {
		t.Fatal("phantom hit")
	}
	if err := c.Put(hash, []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(hash)
	if !ok || string(got) != `{"a":1}` {
		t.Fatalf("get = %q, %v", got, ok)
	}
}

func TestKeyHashInjective(t *testing.T) {
	base := KeyInput{Engine: "e", Workload: "w", Target: "t", Code: []byte("code"), Analysis: "a", Fusion: "f"}
	seen := map[string]string{base.Hash(): "base"}
	variants := map[string]KeyInput{
		"engine":   {Engine: "e2", Workload: "w", Target: "t", Code: []byte("code"), Analysis: "a", Fusion: "f"},
		"workload": {Engine: "e", Workload: "w2", Target: "t", Code: []byte("code"), Analysis: "a", Fusion: "f"},
		"target":   {Engine: "e", Workload: "w", Target: "t2", Code: []byte("code"), Analysis: "a", Fusion: "f"},
		"code":     {Engine: "e", Workload: "w", Target: "t", Code: []byte("code2"), Analysis: "a", Fusion: "f"},
		"analysis": {Engine: "e", Workload: "w", Target: "t", Code: []byte("code"), Analysis: "a2", Fusion: "f"},
		"fusion":   {Engine: "e", Workload: "w", Target: "t", Code: []byte("code"), Analysis: "a", Fusion: "f2"},
		// Boundary shift: moving a byte across a field boundary must
		// change the hash (length prefixes make the encoding injective).
		"boundary": {Engine: "e", Workload: "w", Target: "t", Code: []byte("codea"), Analysis: "", Fusion: "f"},
	}
	for name, k := range variants {
		h := k.Hash()
		if prev, dup := seen[h]; dup {
			t.Fatalf("variant %q collides with %q", name, prev)
		}
		seen[h] = name
	}
	if base.Hash() != base.Hash() {
		t.Fatal("hash not deterministic")
	}
}

func TestRunOpenResumeLookup(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	hash := KeyInput{Engine: EngineVersion, Workload: "lbm", Target: "rv64", Code: []byte("elf")}.Hash()
	if r.Lookup("lbm", "rv64", hash) != nil {
		t.Fatal("fresh run must miss")
	}
	r.CellStarted("lbm", "rv64", hash)
	r.CellFinished("lbm", "rv64", hash, []byte(`{"a":1}`), false)
	r.CellFailed("stream", "a64", "hfail", []byte(`[{"reason":"decode"}]`))
	if st := r.Stats(); st.Computed != 2 || st.IOErrors != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// No RunComplete: simulate a kill here.
	r.Close()

	res, err := Resume(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed() {
		t.Fatal("Resumed() = false")
	}
	hit := res.Lookup("lbm", "rv64", hash)
	if hit == nil || hit.Source != "journal" || hit.Failed || string(hit.Payload) != `{"a":1}` {
		t.Fatalf("hit = %+v", hit)
	}
	fhit := res.Lookup("stream", "a64", "hfail")
	if fhit == nil || !fhit.Failed || fhit.Source != "journal" {
		t.Fatalf("failed hit = %+v", fhit)
	}
	res.RunComplete()
	st := res.Stats()
	if st.Resumed != 2 || st.FailedReplayed != 1 || st.Computed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	res.Close()

	// A brand-new Open against the same dir truncates the journal but
	// keeps the cache: the finished cell is served from cache.
	r2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	chit := r2.Lookup("lbm", "rv64", hash)
	if chit == nil || chit.Source != "cache" || string(chit.Payload) != `{"a":1}` {
		t.Fatalf("cache hit = %+v", chit)
	}
	if r2.Lookup("stream", "a64", "hfail") != nil {
		t.Fatal("failures must never be served from the content cache")
	}
}

func TestRunLookupHashMismatchWarnsAndReruns(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.CellFinished("lbm", "rv64", "old-hash", []byte(`{"stale":true}`), false)
	r.Close()

	var warned []string
	res, err := Resume(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	res.Warn = func(format string, args ...any) {
		warned = append(warned, fmt.Sprintf(format, args...))
	}
	if hit := res.Lookup("lbm", "rv64", "new-hash"); hit != nil {
		t.Fatalf("stale record served: %+v", hit)
	}
	if len(warned) != 1 || !strings.Contains(warned[0], "re-running") {
		t.Fatalf("warnings = %v", warned)
	}
	if st := res.Stats(); st.HashMismatches != 1 || st.Resumed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// faultFile is a File that fails after a number of writes.
type faultFile struct {
	writes int
	err    error
}

func (f *faultFile) Write(p []byte) (int, error) {
	if f.writes <= 0 {
		if f.err != nil {
			return 0, f.err
		}
		return len(p) / 2, nil // short write
	}
	f.writes--
	return len(p), nil
}
func (f *faultFile) Sync() error  { return nil }
func (f *faultFile) Close() error { return nil }

func TestRunSurvivesJournalIOError(t *testing.T) {
	dir := t.TempDir()
	ff := &faultFile{writes: 1}
	r, err := Open(dir, &Options{OpenFile: func(string) (File, error) { return ff, nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var warned int
	r.Warn = func(string, ...any) { warned++ }
	r.CellFinished("lbm", "rv64", "h1", []byte(`{"a":1}`), false) // consumes the one good write
	r.CellFinished("lbm", "a64", "h2", []byte(`{"a":2}`), false)  // journal append short-writes
	st := r.Stats()
	if st.IOErrors != 1 || warned == 0 {
		t.Fatalf("stats = %+v, warned = %d", st, warned)
	}
	// Both results were still cached despite the journal fault.
	if _, ok := r.cache.Get("h2"); !ok {
		t.Fatal("result lost to journal fault")
	}
}

// BenchmarkJournalAppend prices the write-ahead journal at the hook:
// one op is one fsynced cell-finished record with a ~2 KiB payload,
// the size of a full-analysis matrix row.
func BenchmarkJournalAppend(b *testing.B) {
	payload, err := json.Marshal(map[string]string{"row": strings.Repeat("x", 1900)})
	if err != nil {
		b.Fatal(err)
	}
	rec := Record{Type: RecFinished, Workload: "lbm", Target: "RISC-V/GCC 12.2", Hash: strings.Repeat("ab", 32), Payload: payload}
	j, err := OpenJournal(b.TempDir(), 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}
