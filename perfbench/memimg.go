package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// memImages are a run's two replica images, each an anonymous RAM-backed
// file (memfd_create). A bulletd process inherits them as descriptors and
// opens them by path, /dev/fd/3 and /dev/fd/4; the in-process stack opens
// them through /proc/self/fd. The images never reach the host's
// filesystem, so neither its writeback and journal nor the Sync at
// bulletd shutdown is measured as if it were the program. The benchmark
// holds the descriptors, so the images outlive each bulletd process and a
// restart finds them as the last process left them.
type memImages []*os.File

const mfdCloexec = 0x1 // MFD_CLOEXEC

// sysMemfdCreate is memfd_create's system call number, which package
// syscall does not define.
func sysMemfdCreate() (uintptr, error) {
	switch runtime.GOARCH {
	case "amd64":
		return 319, nil
	case "arm64":
		return 279, nil
	}
	return 0, fmt.Errorf("memfd_create: no system call number for %s", runtime.GOARCH)
}

func newMemImages() (memImages, error) {
	nr, err := sysMemfdCreate()
	if err != nil {
		return nil, err
	}
	var m memImages
	for i := 0; i < 2; i++ {
		name, err := syscall.BytePtrFromString(fmt.Sprintf("perfbench-d%d.img", i))
		if err != nil {
			m.close()
			return nil, err
		}
		fd, _, errno := syscall.Syscall(nr, uintptr(unsafe.Pointer(name)), mfdCloexec, 0)
		if errno != 0 {
			m.close()
			return nil, fmt.Errorf("memfd_create: %w", errno)
		}
		m = append(m, os.NewFile(fd, fmt.Sprintf("d%d.img", i)))
	}
	return m, nil
}

// childImages name the images in a bulletd process started with them as
// its ExtraFiles, which it receives as descriptors 3 and 4.
var childImages = []string{"/dev/fd/3", "/dev/fd/4"}

// selfPaths name the images in this process.
func (m memImages) selfPaths() []string {
	paths := make([]string, len(m))
	for i, f := range m {
		paths[i] = fmt.Sprintf("/proc/self/fd/%d", f.Fd())
	}
	return paths
}

func (m memImages) close() {
	for _, f := range m {
		_ = f.Close()
	}
}
