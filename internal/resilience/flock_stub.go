//go:build !unix

package resilience

import "os"

// Non-unix platforms get no advisory locking: journals work, but
// CreateJournal cannot detect a live holder of the same path.
func flockExclusive(f *os.File, block bool) (bool, error) { return true, nil }
