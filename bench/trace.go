package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one bracketed call into a layer. Spans of one replayed setup
// share Setup; Parent is the index of the span that caused this one, -1
// for a root.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Setup   int    `json:"setup"`
}

// tracer keeps spans in memory until the traced run ends. It brackets
// calls from outside the packages under test; spans inside them are a
// later change.
type tracer struct {
	epoch time.Time
	spans []span
}

// traceSample bounds how many calls of one replay are bracketed. The
// unit costs come from untraced loops; the spans show their structure.
const traceSample = 512

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent, setup int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Setup: setup, StartNS: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].EndNS = int64(time.Since(t.epoch)) }

// measure returns the mean cost in ns of fn(i) over n untraced calls,
// then brackets a sample of further calls in spans named name.
func (t *tracer) measure(name string, n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	unit := float64(time.Since(start)) / float64(n)
	for i := 0; i < min(n, traceSample); i++ {
		id := t.begin(name, -1, i)
		fn(i)
		t.end(id)
	}
	return unit
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
