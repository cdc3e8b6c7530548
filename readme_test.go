package buffopt_test

import (
	"bufio"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	goRunRe      = regexp.MustCompile(`go run (\./[^\s` + "`" + `]+)`)
	inlineMakeRe = regexp.MustCompile("`make ([^`\\s]+)[^`]*`")
	makeTargetRe = regexp.MustCompile(`^([A-Za-z0-9_.-]+)\s*:([^=]|$)`)
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
