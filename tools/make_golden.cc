// Regenerates the golden sketches and pinned answers under tests/data/.
//
//   make_golden [out_dir]        (default: tests/data)
//
// For every algorithm in the pinned spec (tests/golden_spec.h, shared
// with tests/golden_files_test.cc) this writes
//   <slug>.ifsk          Engine::Build over the pinned database, saved
//                        at format v1 (byte-packed) -- deliberately
//                        pinned to the legacy version so the v1 read
//                        path keeps golden coverage forever, and so
//                        regeneration reproduces the checked-in bytes
//                        exactly
//   <slug>.answers.txt   one line per pinned query:
//                          <attr,attr,...> <estimate-hexfloat> <bit>
// plus, for the first algorithm only,
//   <slug>_v2.ifsk       the same summary framed at arena v2 (aligned
//                        word sections; sketch_file.h) -- the golden for
//                        the zero-copy mapped load path, which must
//                        answer bit-identically to the v1 file
//
// Regenerating is only legitimate when a PR deliberately changes the
// serialized format or an algorithm's sampling; answers must never drift
// as a side effect of kernel or batching work.

#include <cstdio>
#include <string>
#include <vector>

#include "../tests/golden_spec.h"
#include "engine.h"
#include "util/random.h"

int main(int argc, char** argv) {
  using namespace ifsketch;
  const std::string out_dir = argc > 1 ? argv[1] : "tests/data";
  const core::Database db = golden::PinnedDatabase();
  const auto queries = golden::PinnedQueries();

  std::size_t index = 0;
  for (const char* algo : golden::kAlgorithms) {
    util::Rng rng(golden::kBuildSeed + index);
    ++index;
    const auto engine =
        Engine::Build(db, algo, golden::GoldenParams(), rng);
    if (!engine.has_value()) {
      std::fprintf(stderr, "error: cannot build %s\n", algo);
      return 1;
    }
    const std::string slug = golden::Slug(algo);
    const std::string sk_path = out_dir + "/" + slug + ".ifsk";
    if (!sketch::SaveSketchFile(sk_path, engine->file(),
                                sketch::arena::kVersionLegacy)) {
      std::fprintf(stderr, "error: cannot write %s\n", sk_path.c_str());
      return 1;
    }
    if (index == 1) {  // first algorithm: also the arena-v2 goldens
      const std::string v2_path = out_dir + "/" + slug + "_v2.ifsk";
      if (!sketch::SaveSketchFile(v2_path, engine->file())) {
        std::fprintf(stderr, "error: cannot write %s\n", v2_path.c_str());
        return 1;
      }
      std::printf("wrote %s (arena v2, same summary bits)\n",
                  v2_path.c_str());
      // The same v2 bytes plus the CRC32C integrity trailer: golden for
      // the checksum-validating variants of both load paths.
      const std::string crc_path = out_dir + "/" + slug + "_v2_crc.ifsk";
      if (!sketch::SaveSketchFile(crc_path, engine->file(),
                                  sketch::arena::kVersionArena,
                                  sketch::SketchChecksum::kCrc32c)) {
        std::fprintf(stderr, "error: cannot write %s\n", crc_path.c_str());
        return 1;
      }
      std::printf("wrote %s (arena v2 + crc32c trailer)\n", crc_path.c_str());
    }

    std::vector<double> estimates;
    engine->estimate_many(queries, &estimates);
    std::vector<bool> bits;
    engine->are_frequent(queries, &bits);

    const std::string ans_path = out_dir + "/" + slug + ".answers.txt";
    std::FILE* out = std::fopen(ans_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", ans_path.c_str());
      return 1;
    }
    std::fprintf(out, "# golden answers v1 for %s\n", algo);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const auto attrs = queries[i].Attributes();
      std::string key;
      for (std::size_t a : attrs) {
        if (!key.empty()) key.push_back(',');
        key += std::to_string(a);
      }
      // %a renders the exact bits of the double; the test parses it back
      // with strtod, which is exact for hexfloats.
      std::fprintf(out, "%s %a %d\n", key.c_str(), estimates[i],
                   bits[i] ? 1 : 0);
    }
    std::fclose(out);
    std::printf("wrote %s (%zu bits) and %s (%zu queries)\n",
                sk_path.c_str(), engine->summary_bits(), ans_path.c_str(),
                queries.size());
  }
  return 0;
}
