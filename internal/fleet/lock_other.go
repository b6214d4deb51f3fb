//go:build !unix

package fleet

import "sync"

// lockMu stands in for flock(2) where it is missing: it serializes
// conditional writes within this process only.
var lockMu sync.Mutex

func lockFile(string) (unlock func(), err error) {
	lockMu.Lock()
	return lockMu.Unlock, nil
}
