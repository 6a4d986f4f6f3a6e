//go:build !(darwin || dragonfly || freebsd || linux || netbsd || openbsd)

package store

import "os"

// lock does nothing where flock is unavailable; keeping one writer per
// store is then left to the operator.
func lock(*os.File) error { return nil }
