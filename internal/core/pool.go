package core

import "sheriff/internal/par"

// runIndexed executes fn(0) … fn(n-1) on at most `workers` goroutines
// (par.Do) and waits for all of them. Every index runs exactly once even
// when one fails; each call's error lands in its own slot and the slots
// are read in index order, so the error returned is the failing call with
// the lowest index whatever the schedule. workers <= 1 runs every call on
// the caller, in order.
func runIndexed(workers, n int, fn func(i int) error) error {
	errs := make([]error, n)
	par.Do(workers, n, func() func(int) {
		return func(i int) { errs[i] = fn(i) }
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
