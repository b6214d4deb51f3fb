//go:build unix

package fleet

import (
	"errors"
	"os"
	"syscall"
)

// lockFile takes an exclusive flock(2) on path, creating the file if
// needed. The lock belongs to the open file, so it also excludes other
// handles in this process, and the kernel drops it if the process
// dies. unlock closes the file, which releases it.
func lockFile(path string) (unlock func(), err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	for {
		err = syscall.Flock(int(f.Fd()), syscall.LOCK_EX)
		if !errors.Is(err, syscall.EINTR) {
			break
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return func() { f.Close() }, nil
}
