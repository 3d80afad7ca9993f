package main

import (
	"bytes"
	"os"
	"testing"
)

// TestPaperTablesMatchCommittedOutput regenerates every experiment but the
// chaos soak at full size and compares the text byte for byte with
// cubebench_output.txt: the paper's tables and their §8 access counts cannot
// drift without the committed file being re-taken with
// `go run ./cmd/cubebench -exp <id>` for each id but chaos.
func TestPaperTablesMatchCommittedOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the paper's tables at full size")
	}
	want, err := os.ReadFile("../../cubebench_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, e := range experiments(false) {
		if e.id != "chaos" {
			tab := e.run()
			tab.Fprint(&got)
		}
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range min(len(gotLines), len(wantLines)) {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("cubebench_output.txt line %d:\n got %q\nwant %q", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("cubebench writes %d lines, cubebench_output.txt holds %d", len(gotLines), len(wantLines))
}
