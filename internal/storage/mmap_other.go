//go:build !linux && !darwin

package storage

import (
	"fmt"
	"os"
)

// mmapFile is unavailable on this platform; LoadDumpFile falls back to
// reading the image into a heap buffer (LoadModeRead), which preserves
// the zero-decode property but not demand paging.
func mmapFile(_ *os.File, _ int64) ([]byte, func([]byte) error, error) {
	return nil, nil, fmt.Errorf("storage: mmap unsupported on this platform")
}
