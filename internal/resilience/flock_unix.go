//go:build unix

package resilience

import (
	"os"
	"syscall"
)

// flockExclusive takes an advisory exclusive lock (flock LOCK_EX) on f.
// With block=false it returns (false, nil) when another open file
// description holds the lock; with block=true it waits. flock locks
// attach to the open file description, so two opens of the same path —
// even inside one process — conflict, which is exactly the live-journal
// protection CreateJournal needs.
func flockExclusive(f *os.File, block bool) (bool, error) {
	how := syscall.LOCK_EX
	if !block {
		how |= syscall.LOCK_NB
	}
	for {
		err := syscall.Flock(int(f.Fd()), how)
		switch err {
		case nil:
			return true, nil
		case syscall.EINTR:
			continue
		case syscall.EWOULDBLOCK:
			if !block {
				return false, nil
			}
			return false, err
		default:
			return false, err
		}
	}
}
