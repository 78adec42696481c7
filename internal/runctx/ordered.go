package runctx

// Ordered runs do(i) for every i in [0, n) on at most workers goroutines
// (<= 0 means 1) and calls emit(i) from the calling goroutine in index
// order, each as soon as do has returned for i and every index before
// it. Callers stream results in input order while later ones are still
// running; do's writes are visible to emit. Ordered returns once every
// index has been emitted.
func Ordered(n, workers int, do, emit func(i int)) {
	workers = min(max(workers, 1), n)
	jobs := make(chan int)
	completions := make(chan int)
	for w := 0; w < workers; w++ {
		go func() {
			for i := range jobs {
				do(i)
				completions <- i
			}
		}()
	}
	go func() {
		for i := 0; i < n; i++ {
			jobs <- i
		}
		close(jobs)
	}()
	done := make([]bool, n)
	next := 0
	for finished := 0; finished < n; finished++ {
		done[<-completions] = true
		for ; next < n && done[next]; next++ {
			emit(next)
		}
	}
}
