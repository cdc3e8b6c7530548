package buffopt_test

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	goRunRe      = regexp.MustCompile(`go run (\./[^\s` + "`" + `]+)`)
	inlineMakeRe = regexp.MustCompile("`make ([^`\\s]+)[^`]*`")
	makeTargetRe = regexp.MustCompile(`^([A-Za-z0-9_.-]+)\s*:([^=]|$)`)
	exampleRe    = regexp.MustCompile(`examples/[A-Za-z0-9_-]+`)
	testFileRe   = regexp.MustCompile(`[A-Za-z0-9_/-]+_test\.go`)
	funcRefRe    = regexp.MustCompile(`\b(?:Test|Benchmark)[A-Z0-9][A-Za-z0-9_]*\*?`)
	funcDeclRe   = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark)[A-Za-z0-9_]*)\(`)
	runFlagRe    = regexp.MustCompile(`-run '([^']*)'`)
)

// commandDrift lists the README commands that no longer resolve: a
// `go run ./<dir>` whose directory is missing, or a make target (in
// inline code or at the start of a fenced line) the Makefile does not
// declare.
func commandDrift(readme string, targets map[string]bool, dirExists func(string) bool) []string {
	var drift []string
	for _, m := range goRunRe.FindAllStringSubmatch(readme, -1) {
		if !dirExists(m[1]) {
			drift = append(drift, "go run "+m[1]+": no such directory")
		}
	}
	checkTarget := func(target string) {
		if !targets[target] {
			drift = append(drift, "make "+target+": no such Makefile target")
		}
	}
	for _, m := range inlineMakeRe.FindAllStringSubmatch(readme, -1) {
		checkTarget(m[1])
	}
	fenced := false
	sc := bufio.NewScanner(strings.NewReader(readme))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
			continue
		}
		if f := strings.Fields(line); fenced && len(f) > 1 && f[0] == "make" {
			checkTarget(f[1])
		}
	}
	return drift
}

// makeTargets returns the rule names the Makefile declares.
func makeTargets(makefile string) map[string]bool {
	targets := map[string]bool{}
	for _, line := range strings.Split(makefile, "\n") {
		if m := makeTargetRe.FindStringSubmatch(line); m != nil && !strings.HasPrefix(m[1], ".") {
			targets[m[1]] = true
		}
	}
	return targets
}

// TestReadmeCommandsResolve keeps README.md's runnable commands in step
// with the tree: every `go run ./<dir>` names a directory that exists
// and every `make <target>` a target the Makefile declares.
func TestReadmeCommandsResolve(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	isDir := func(path string) bool {
		fi, err := os.Stat(path)
		return err == nil && fi.IsDir()
	}
	for _, d := range commandDrift(string(readme), makeTargets(string(makefile)), isDir) {
		t.Errorf("README.md: %s", d)
	}
}

// TestCommandDriftDetects pins the scanner itself, so a regexp that
// stops matching cannot make the README check pass vacuously.
func TestCommandDriftDetects(t *testing.T) {
	readme := "Run `make soak` or `make gone -j2`.\n\n" +
		"```sh\ngo run ./cmd/here -v\ngo run ./cmd/gone\n  make check\nmake missing\n```\n" +
		"make outside # prose, not a command\n"
	targets := makeTargets("# comment\n.PHONY: soak check\nsoak:\n\tgo test\ncheck: soak\nVAR := x\n")
	exists := func(path string) bool { return path == "./cmd/here" }
	got := commandDrift(readme, targets, exists)
	want := []string{
		"go run ./cmd/gone: no such directory",
		"make gone: no such Makefile target",
		"make missing: no such Makefile target",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("drift = %q, want %q", got, want)
	}
}

// indexDrift lists the references in DESIGN.md's experiment index that
// no longer resolve: an examples/<dir> that is missing, a
// <pkg>/<file>_test.go found neither at that path nor under internal/,
// or a Test…/Benchmark… name (a trailing * makes it a prefix) that no
// test file declares.
func indexDrift(index string, exists func(string) bool, funcs map[string]bool) []string {
	var drift []string
	for _, dir := range exampleRe.FindAllString(index, -1) {
		if !exists(dir) {
			drift = append(drift, dir+": no such directory")
		}
	}
	for _, f := range testFileRe.FindAllString(index, -1) {
		if !exists(f) && !exists("internal/"+f) {
			drift = append(drift, f+": no such file")
		}
	}
	for _, name := range funcRefRe.FindAllString(index, -1) {
		prefix, wild := strings.CutSuffix(name, "*")
		found := funcs[name]
		for f := range funcs {
			found = found || wild && strings.HasPrefix(f, prefix)
		}
		if !found {
			drift = append(drift, name+": no such function")
		}
	}
	return drift
}

// runDrift lists each |-separated alternative of the Makefile's
// `-run '…'` patterns that matches no Test function. `go test -run`
// exits 0 when its pattern selects nothing, so without this a renamed
// test would silently drop out of a make gate.
func runDrift(makefile string, funcs map[string]bool) []string {
	var drift []string
	for _, m := range runFlagRe.FindAllStringSubmatch(makefile, -1) {
		for _, alt := range strings.Split(m[1], "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				drift = append(drift, "-run "+alt+": "+err.Error())
				continue
			}
			found := false
			for f := range funcs {
				found = found || strings.HasPrefix(f, "Test") && re.MatchString(f)
			}
			if !found {
				drift = append(drift, "-run "+alt+": matches no test")
			}
		}
	}
	return drift
}

// testFuncs returns the Test… and Benchmark… functions the tree's test
// files declare, skipping hidden directories (build caches).
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcDeclRe.FindAllSubmatch(src, -1) {
			funcs[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// TestDesignIndexResolves keeps DESIGN.md §4, the experiment index, in
// step with the tree: every example directory, test file, test and
// benchmark it names exists.
func TestDesignIndexResolves(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, _ := strings.Cut(string(design), "\n## 4. ")
	index, _, found := strings.Cut(index, "\n## ")
	if !found {
		t.Fatal("DESIGN.md has no §4 followed by another section")
	}
	exists := func(path string) bool {
		_, err := os.Stat(path)
		return err == nil
	}
	for _, d := range indexDrift(index, exists, testFuncs(t)) {
		t.Errorf("DESIGN.md §4: %s", d)
	}
}

// TestMakefileRunPatternsMatch: every alternative of every Makefile
// `-run '…'` pattern selects at least one test.
func TestMakefileRunPatternsMatch(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range runDrift(string(makefile), testFuncs(t)) {
		t.Errorf("Makefile: %s", d)
	}
}

// TestIndexAndRunDriftDetect pins the two scanners above, so a regexp
// that stops matching cannot make either check pass vacuously.
func TestIndexAndRunDriftDetect(t *testing.T) {
	index := "| Fig. 1 | `noisesim`, `examples/here`, `examples/gone` | `TestHere`, `TestGone`, `TestPre*`, `TestNone*` |\n" +
		"| Fig. 2 | unit tests `noise/here_test.go`, `noise/gone_test.go` | `BenchmarkHere`; `BenchmarkGone` |\n"
	exists := func(path string) bool { return path == "examples/here" || path == "internal/noise/here_test.go" }
	funcs := map[string]bool{"TestHere": true, "TestPrefixed": true, "BenchmarkHere": true, "BenchmarkGoner": true}
	got := indexDrift(index, exists, funcs)
	want := []string{
		"examples/gone: no such directory",
		"noise/gone_test.go: no such file",
		"TestGone: no such function",
		"TestNone*: no such function",
		"BenchmarkGone: no such function",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("index drift = %q, want %q", got, want)
	}

	makefile := "gate:\n\tgo test -run 'TestHere|TestPre|TestGone' ./a\n\tgo test -run 'BenchmarkHere' ./b\n\tgo test -run '^TestH.re' ./c\n"
	got = runDrift(makefile, funcs)
	want = []string{
		"-run TestGone: matches no test",
		"-run BenchmarkHere: matches no test",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("run drift = %q, want %q", got, want)
	}
}
