package zombieland

import (
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/acpi"
)

// testRackConfig returns a small, fast rack configuration for the public API
// tests.
func testRackConfig(servers int) RackConfig {
	board := DefaultBoardSpec()
	board.MemoryBytes = 1 << 30
	return RackConfig{
		Servers:           servers,
		Board:             board,
		BufferSize:        16 << 20,
		HostReservedBytes: 128 << 20,
	}
}

func TestPublicRackLifecycle(t *testing.T) {
	rack, err := NewRack(testRackConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rack.Servers()) != 3 {
		t.Fatalf("servers = %v", rack.Servers())
	}
	// Push one server to the zombie state and place a VM that needs its
	// memory.
	if err := rack.PushToZombie("server-02"); err != nil {
		t.Fatal(err)
	}
	srv, err := rack.Server("server-02")
	if err != nil {
		t.Fatal(err)
	}
	if srv.State() != Sz {
		t.Fatalf("state = %v, want Sz", srv.State())
	}
	guest, err := rack.CreateVM(NewVM("app", 3<<29, 1<<30), CreateVMOptions{SimPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	if guest.RemoteBytes == 0 {
		t.Error("the VM should use remote memory from the zombie")
	}
	stats, err := rack.RunWorkload("app", SparkSQL, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Accesses == 0 {
		t.Error("workload should have run")
	}
	rack.AdvanceClock(60e9)
	if rack.TotalEnergyJoules() <= 0 {
		t.Error("energy accounting should be live")
	}
	if err := rack.DestroyVM("app"); err != nil {
		t.Fatal(err)
	}
	if err := rack.Wake("server-02"); err != nil {
		t.Fatal(err)
	}
}

func TestPublicConstantsAndHelpers(t *testing.T) {
	if Sz != acpi.Sz || S0 != acpi.S0 {
		t.Error("sleep state re-exports broken")
	}
	if LocalMemoryRule != 0.5 {
		t.Errorf("LocalMemoryRule = %v, want 0.5", LocalMemoryRule)
	}
	if len(Workloads()) != 4 || len(PolicyNames()) != 3 {
		t.Error("workload/policy listings wrong")
	}
	if len(LocalFractions()) != 5 {
		t.Error("local fractions wrong")
	}
	v := PaperVM()
	if v.ReservedBytes != 7<<30 {
		t.Error("paper VM wrong")
	}
	if len(MachineProfiles()) != 2 {
		t.Error("machine profiles wrong")
	}
	if HPProfile().Name != "HP" || DellProfile().Name != "Dell" {
		t.Error("profile names wrong")
	}
	if len(ConsolidationPolicies()) != 3 {
		t.Error("consolidation policies wrong")
	}
	board := DefaultBoardSpec()
	if !board.SplitPowerDomains {
		t.Error("default board should be Sz capable")
	}
}

func TestGenerateTraceVariants(t *testing.T) {
	orig, err := GenerateTrace(false, 50, 400, 3600, 7)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := GenerateTrace(true, 50, 400, 3600, 7)
	if err != nil {
		t.Fatal(err)
	}
	so := orig.ComputeStats()
	sm := mod.ComputeStats()
	if sm.MemToCPURatio <= so.MemToCPURatio*1.5 {
		t.Errorf("modified trace should be memory-heavier: %.2f vs %.2f", sm.MemToCPURatio, so.MemToCPURatio)
	}
	// Defaults kick in for zero arguments.
	def, err := GenerateTrace(false, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if def.Machines != 200 || len(def.Tasks) != 3000 || def.HorizonSec != 86400 {
		t.Errorf("default trace = %d machines, %d tasks, %d s; want 200, 3000, 86400", def.Machines, len(def.Tasks), def.HorizonSec)
	}
}

// TestFacadeRejectsNegativeSizes: zero still means "default", but a negative
// size is the trace spec's error, not a silently substituted default.
func TestFacadeRejectsNegativeSizes(t *testing.T) {
	cases := []struct {
		machines, tasks int
		horizonSec      int64
		want            string
	}{
		{-5, -1, -3600, "machines -5 out of range (need >= 1)"},
		{0, -1, 0, "tasks -1 out of range (need >= 1)"},
		{0, 0, -3600, "horizon_sec -3600 out of range (need >= 1)"},
	}
	for _, c := range cases {
		tr, err := GenerateTrace(false, c.machines, c.tasks, c.horizonSec, 7)
		if err == nil || err.Error() != c.want {
			t.Errorf("GenerateTrace(false, %d, %d, %d, 7) = %v, %v; want %q", c.machines, c.tasks, c.horizonSec, tr, err, c.want)
		}
	}
	if _, err := Figure10(Fig10Config{Machines: -5, Tasks: 100, HorizonSec: 3600}); err == nil ||
		err.Error() != "machines -5 out of range (need >= 1)" {
		t.Errorf("Figure10 with -5 machines = %v, want the spec's error", err)
	}
}

// TestFacadeNamesAreUsed is the ratchet on zombieland.go: every exported
// top-level name must be reached by something — written zombieland.Name in
// another file of the module (the commands, the walk-throughs in
// examples_test.go; benchmark/ is a module of its own), written bare in
// another file of this package, or
// referenced by the facade's own code somewhere other than its declaration
// (the parameter and result types of live functions). A re-export nothing
// reaches is deleted, not kept for completeness.
func TestFacadeNamesAreUsed(t *testing.T) {
	const facade = "zombieland.go"
	file, err := parser.ParseFile(token.NewFileSet(), facade, nil, parser.SkipObjectResolution) // comments dropped
	if err != nil {
		t.Fatal(err)
	}
	// Occurrences inside the facade's code. The selector of pkg.Name names
	// the other package's identifier, not the facade's, so it is not walked.
	own := make(map[string]int)
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok {
				own[id.Name]++
			}
			return false
		case *ast.Ident:
			own[n.Name]++
		}
		return true
	})

	used := make(map[string]bool)
	qualified := regexp.MustCompile(`\bzombieland\.([A-Z]\w*)`)
	bare := regexp.MustCompile(`\b[A-Z]\w*`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "benchmark" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || path == facade {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range qualified.FindAllSubmatch(src, -1) {
			used[string(m[1])] = true
		}
		if filepath.Dir(path) == "." {
			for _, m := range bare.FindAll(src, -1) {
				used[string(m)] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	check := func(id *ast.Ident) {
		if id.IsExported() && !used[id.Name] && own[id.Name] < 2 {
			t.Errorf("%s is declared in %s and used nowhere: delete it", id.Name, facade)
		}
	}
	for _, decl := range file.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			check(decl.Name)
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					check(spec.Name)
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						check(id)
					}
				}
			}
		}
	}
}

// TestEveryExampleAssertsOutput keeps the walk-throughs running: go test
// only compiles an Example without an "Output:" comment, so one that lost its
// block would silently stop being checked.
func TestEveryExampleAssertsOutput(t *testing.T) {
	paths, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, path := range paths {
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, file)
	}
	examples := doc.Examples(files...)
	if len(examples) == 0 {
		t.Fatalf("no Example functions in %v", paths)
	}
	for _, ex := range examples {
		if ex.Output == "" && !ex.EmptyOutput {
			t.Errorf("Example%s has no // Output: block, so go test never runs it", ex.Name)
		}
	}
}
