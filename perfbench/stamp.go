package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// stamp identifies the code and host a report was measured on.
type stamp struct {
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NProc        int    `json:"nproc"`
	CPUModel     string `json:"cpu_model"`
	Time         string `json:"time"`
}

func hostStamp(root string) stamp {
	return stamp{
		Commit:       gitCommit(root),
		SourceSHA256: sourceDigest(root),
		GoVersion:    goruntime.Version(),
		GOMAXPROCS:   goruntime.GOMAXPROCS(0),
		NProc:        goruntime.NumCPU(),
		CPUModel:     cpuModel(),
		Time:         time.Now().UTC().Format(time.RFC3339),
	}
}

// gitCommit reads HEAD from root's .git directory without running git;
// an export without one reports "unknown" and is identified by its
// source digest instead.
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go, MJ and go.mod file under root (hidden
// directories, such as build output, excluded), so two reports name
// the same code exactly when their digests match.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if ext := filepath.Ext(path); ext == ".go" || ext == ".mj" || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel + "\x00" + strconv.Itoa(len(b)) + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
