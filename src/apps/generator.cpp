#include "apps/generator.hpp"

#include "common/assert.hpp"

namespace hmem::apps {

namespace {

std::uint64_t lines_for(std::uint64_t object_bytes) {
  return (object_bytes + memsim::kCacheLineBytes - 1) /
         memsim::kCacheLineBytes;
}

}  // namespace

AccessGenerator::AccessGenerator(const ObjectSpec& object, std::uint64_t seed)
    : pattern_(object.pattern),
      gen_(make_workload_gen(object, lines_for(object.size_bytes), seed)),
      inline_(gen_->inline_state()) {}

AccessGenerator::AccessGenerator(AccessPattern pattern,
                                 std::uint64_t object_bytes,
                                 std::uint64_t seed) {
  ObjectSpec object;
  object.name = "anon";
  object.size_bytes = object_bytes;
  object.pattern = pattern;
  pattern_ = pattern;
  gen_ = make_workload_gen(object, lines_for(object_bytes), seed);
  inline_ = gen_->inline_state();
}

}  // namespace hmem::apps
