package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// goldenEvents is a fixed event stream covering both vCPU rows, empty
// and populated From/To, and a note payload.
func goldenEvents() []Event {
	return []Event{
		{Seq: 0, Cycles: 0, CPU: 0, Kind: "crossing", From: "comp0", To: "comp1"},
		{Seq: 1, Cycles: 2100, CPU: 1, Kind: "crossing", From: "comp1", To: "comp0"},
		{Seq: 2, Cycles: 4200, CPU: 0, Kind: "buf-alloc", Note: "0x1000+2048"},
		{Seq: 3, Cycles: 6301, CPU: 1, Kind: "shed", From: "comp1", Note: "depth 4"},
	}
}

// TestExportChromeGolden pins the exporter's byte-exact output: the
// timeline must be reproducible run-to-run for CI artifact diffing.
func TestExportChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := ExportChrome(&buf, goldenEvents(), 2); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with go test -run TestExportChromeGolden -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome export drifted from golden file\n got:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestExportChromeDeterministic exports twice and requires identical
// bytes — the property the golden file rests on.
func TestExportChromeDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := ExportChrome(&a, goldenEvents(), 2); err != nil {
		t.Fatal(err)
	}
	if err := ExportChrome(&b, goldenEvents(), 2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of the same events differ")
	}
}

func TestExportChromeValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := ExportChrome(&buf, goldenEvents(), 2); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChrome(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n != len(goldenEvents()) {
		t.Fatalf("validated %d events, want %d", n, len(goldenEvents()))
	}
	// A vCPU beyond the declared count still gets a timeline row.
	var buf2 bytes.Buffer
	ev := goldenEvents()
	ev[0].CPU = 5
	if err := ExportChrome(&buf2, ev, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateChrome(buf2.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf2.Bytes(), []byte(`"name":"vCPU 5"`)) {
		t.Fatal("no thread row for late vCPU 5")
	}
}

func TestValidateChromeRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"not json",
		`{"traceEvents":[]}`,
		`{"traceEvents":[{"ph":"i","pid":0,"tid":0,"name":"x"}]}`,                                                         // no ts
		`{"traceEvents":[{"ph":"i","pid":0,"ts":1.0,"name":"x"}]}`,                                                        // no tid
		`{"traceEvents":[{"ph":"i","pid":0,"tid":0,"ts":2.0,"name":"a"},{"ph":"i","pid":0,"tid":0,"ts":1.0,"name":"b"}]}`, // ts backwards
	} {
		if _, err := ValidateChrome([]byte(bad)); err == nil {
			t.Fatalf("validated invalid document %q", bad)
		}
	}
}
