package experiments

import (
	"runtime"
	"sync"
)

// Job names one experiment execution for RunOrdered.
type Job struct {
	// ID identifies the experiment (E1…E13, A1…A4) for progress display.
	ID string
	// Run executes the experiment and returns its result.
	Run func() Result
}

// RunOrdered executes jobs on a bounded pool of workers and returns the
// results in the input order, independent of completion order. workers
// below 1 defaults to GOMAXPROCS; it is capped at len(jobs).
//
// Every experiment builds its own simulator instance and shares no
// mutable state with the others, so running them concurrently cannot
// change any individual result: parallelism only reorders wall-clock
// completion, which this function hides again by indexing results by
// input position.
func RunOrdered(jobs []Job, workers int) []Result {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]Result, len(jobs))
	if workers <= 1 {
		for i, j := range jobs {
			results[i] = j.Run()
		}
		return results
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = jobs[i].Run()
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}
