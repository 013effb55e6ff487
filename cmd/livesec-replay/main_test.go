package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestRecordReplayRoundTrip records the scenario's log and replays it:
// every flow-start line carries its user's MAC and its flow's
// description, which the log holds as Store.Events returned them.
func TestRecordReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.json")
	if err := doRecord(path); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("log file: %v %v", fi, err)
	}
	var all bytes.Buffer
	if err := doReplay(&all, path, 0, 0); err != nil {
		t.Fatal(err)
	}
	flowStart := regexp.MustCompile(`flow-start +sw=\d+ +user=([0-9a-f:]{17}) .* in=\d+ \S+->\S+ .* proto=\d+$`)
	starts := 0
	for _, line := range strings.Split(all.String(), "\n") {
		if !strings.Contains(line, " flow-start ") {
			continue
		}
		if starts++; !flowStart.MatchString(line) {
			t.Fatalf("replayed flow-start line lacks its user or flow description:\n%s", line)
		}
	}
	if starts == 0 {
		t.Fatalf("no flow-start line replayed:\n%s", all.String())
	}
	// A narrow window replays a part of the log.
	var window bytes.Buffer
	if err := doReplay(&window, path, time.Second, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	if n, total := strings.Count(window.String(), "\n"), strings.Count(all.String(), "\n"); n <= 2 || n >= total {
		t.Fatalf("window 1s–3s replayed %d lines of %d", n, total)
	}
}

func TestReplayRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "junk.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := doReplay(io.Discard, path, 0, 0); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := doReplay(io.Discard, filepath.Join(dir, "missing.json"), 0, 0); err == nil {
		t.Fatal("missing file accepted")
	}
}
