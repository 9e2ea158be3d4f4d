package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// provenance records what a result was measured on and with.
func provenance(workload string, seed int64, after string, extra map[string]any) map[string]any {
	p := map[string]any{
		"workload": workload, "seed": seed,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"goarch": runtime.GOARCH, "goos": runtime.GOOS, "go_version": runtime.Version(),
		"git_commit": "unknown", "source_sha256": sourceHash("."),
	}
	if after != "" {
		p["after"] = after
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["git_commit"] = s.Value
			case "vcs.modified":
				p["git_modified"] = s.Value == "true"
			}
		}
	}
	for k, v := range extra {
		p[k] = v
	}
	return p
}

// sourceHash digests the Go sources and module files under root, so a
// result can be tied to its code where no git commit is recorded (a
// checkout without .git). Hidden directories, such as build output,
// are skipped.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
