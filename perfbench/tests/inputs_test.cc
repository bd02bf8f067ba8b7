// Self-test of the benchmark's input generation: the same seed must give
// identical catalogs, mobile traces, analyst request streams and write
// batches; a different seed must change each of them.
//
//   python3 perfbench/run.py --selftest
// or, once built, .bench_build/perfbench_inputs_test

#include <cstdio>
#include <string>
#include <vector>

#include "inputs.h"
#include "util/clock.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool SameActions(const std::vector<drugtree::mobile::Action>& a,
                 const std::vector<drugtree::mobile::Action>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].node != b[i].node ||
        a[i].dx != b[i].dx || a[i].dy != b[i].dy) {
      return false;
    }
  }
  return true;
}

bool SameTimed(const std::vector<perfbench::TimedQuery>& a,
               const std::vector<perfbench::TimedQuery>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].due_us != b[i].due_us || a[i].query.sql != b[i].query.sql) {
      return false;
    }
  }
  return true;
}

constexpr perfbench::Scale kTiny{4, 8, 60};

std::unique_ptr<drugtree::core::DrugTree> Build(
    uint64_t seed, drugtree::util::SimulatedClock* clock) {
  auto dt = drugtree::core::DrugTree::Build(
      perfbench::MakeBuildOptions(kTiny, seed), clock);
  if (!dt.ok()) {
    std::printf("FAIL build: %s\n", dt.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*dt);
}

}  // namespace

int main() {
  using namespace perfbench;
  drugtree::util::SimulatedClock clock;
  auto a = Build(11, &clock);
  auto b = Build(11, &clock);
  auto c = Build(12, &clock);
  const std::vector<std::string> acc = {"P1", "P2", "P3", "P4", "P5"};
  const std::vector<std::string> lig = {"L1", "L2", "L3"};

  Expect(MakeBuildOptions(kTiny, 11).seed == MakeBuildOptions(kTiny, 11).seed,
         "catalog: same seed, same build seed");
  Expect(MakeBuildOptions(kTiny, 11).seed != MakeBuildOptions(kTiny, 12).seed,
         "catalog: new seed, new build seed");

  for (int s = 0; s < 4; ++s) {
    Expect(SameActions(MakeMobileTrace(*a, 11, s, 200),
                       MakeMobileTrace(*b, 11, s, 200)),
           "mobile trace " + std::to_string(s) + ": same seed, same trace");
    Expect(!SameActions(MakeMobileTrace(*a, 11, s, 200),
                        MakeMobileTrace(*c, 12, s, 200)),
           "mobile trace " + std::to_string(s) + ": new seed, new trace");
  }
  Expect(!SameActions(MakeMobileTrace(*a, 11, 0, 200),
                      MakeMobileTrace(*a, 11, 1, 200)),
         "mobile traces differ between sessions");

  Expect(SameTimed(MakeAnalystStream(*a, 11, 400.0, 500),
                   MakeAnalystStream(*b, 11, 400.0, 500)),
         "analyst stream: same seed, same statements and due times");
  Expect(!SameTimed(MakeAnalystStream(*a, 11, 400.0, 500),
                    MakeAnalystStream(*c, 12, 400.0, 500)),
         "analyst stream: new seed, new stream");

  for (uint64_t batch = 0; batch < 3; ++batch) {
    Expect(MakeWriteBatch(11, batch, 16, acc, lig) ==
               MakeWriteBatch(11, batch, 16, acc, lig),
           "write batch " + std::to_string(batch) + ": same seed, same writes");
    Expect(MakeWriteBatch(11, batch, 16, acc, lig) !=
               MakeWriteBatch(12, batch, 16, acc, lig),
           "write batch " + std::to_string(batch) + ": new seed, new writes");
  }
  Expect(MakeWriteBatch(11, 0, 16, acc, lig) !=
             MakeWriteBatch(11, 1, 16, acc, lig),
         "write batches differ between batches");

  std::printf("%s\n", failures == 0 ? "inputs self-test passed"
                                    : "inputs self-test FAILED");
  return failures == 0 ? 0 : 1;
}
