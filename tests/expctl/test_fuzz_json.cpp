// Seeded mutational fuzz over expctl::Json on its own.
//
// A corpus that reaches every rule of the grammar (escapes, surrogate
// pairs, every number form, nesting up to the depth limit) plus every
// checked-in sweeps/*.json is damaged by the shared mutators
// (../distrib/json_mutator.hpp: byte flips, truncation, key drops, type
// swaps) and by token splices (a JSON fragment inserted, a span deleted
// or repeated), then fed to Json::parse.  Every input must yield a
// JsonError whose message starts "line:col: ", or a value v such that
//   - dump(0) and dump(2) of v parse back to a value equal to v and
//     re-dump to the same bytes (the header's byte-stability promise);
//   - every strict accessor on every node of v returns or throws
//     JsonError.
// Anything else (a crash, a sanitizer report, a foreign exception) fails.
//
// Deterministic and bounded: fixed seeds and a fixed mutation budget.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "../distrib/json_mutator.hpp"
#include "expctl/json.hpp"
#include "expctl/spec_io.hpp"

namespace ec = drowsy::expctl;
namespace fs = std::filesystem;
namespace dtest = drowsy::testing;
using ec::Json;

namespace {

/// Documents that together reach every branch of the parser.
std::vector<std::string> grammar_corpus() {
  return {
      R"({"a": 1, "b": [0.02, -3.5, 1e-09, 2E+3, 0], "c": {"nested": true}})",
      R"([1, 2.5, "x", null, false, true, {}, []])",
      R"({"seed": 18446744073709551615, "min": -9223372036854775808, "big": 1e308})",
      R"({"huge": 123456789012345678901234567890, "neg": -0.5, "tiny": 5e-324})",
      R"([-0.0, -0, 0.0, -0e7, 1.0, -1E-2, 100])",
      R"({"esc": "q\"b\\s\/b\bf\fn\nr\rt\t\u0041\u00e9\u20AC\ud83d\ude00"})",
      R"({"ctl": "\u0001\u001f", "utf8": "é€😀", "empty": ""})",
      "  \t\r\n[ [ [ [ [ [ [ [ {\"deep\": [[[[[[1]]]]]]} ] ] ] ] ] ] ] ]  \n",
      R"({"k": {"k": {"k": {"k": {"k": {"k": {"k": {"k": null}}}}}}}})",
  };
}

/// One JSON-significant fragment for a splice.
std::string_view fragment(std::uint64_t pick) {
  static constexpr std::array<std::string_view, 26> kFragments = {
      "\"", "\\", "\\u", "\\ud800", "\\udc00", "\\u12", "{", "}", "[", "]",
      ",", ":", "-", "0", "01", ".", "e", "E+", "1e999", "-0", "null",
      "tru", "\x01", "\xff", " \n", "9223372036854775808"};
  return kFragments[pick % kFragments.size()];
}

/// Insert a fragment, delete a span, or repeat a span of `text`.
std::string splice(const std::string& text, std::mt19937_64& rng) {
  const std::size_t at = text.empty() ? 0 : rng() % text.size();
  const std::size_t len = 1 + rng() % 8;
  std::string out = text;
  switch (rng() % 3) {
    case 0: out.insert(at, fragment(rng())); break;
    case 1: out.erase(at, len); break;
    default: out.insert(at, text.substr(at, len)); break;
  }
  return out;
}

/// Calls every strict accessor on every node; each must return or throw
/// JsonError.  Returns the number of nodes visited.
std::size_t probe_accessors(const Json& v) {
  const auto typed = [](auto&& call) {
    try {
      static_cast<void>(call());
    } catch (const ec::JsonError&) {
    }
  };
  typed([&] { return v.as_bool(); });
  typed([&] { return v.as_int(); });
  typed([&] { return v.as_uint(); });
  typed([&] { return v.as_double(); });
  typed([&] { return v.as_string().size(); });
  typed([&] { return v.size(); });
  typed([&] { return v.elements().size(); });
  typed([&] { return v.items().size(); });
  typed([&] { return v.at(std::size_t{0}).type(); });
  typed([&] { return v.at(std::string("k")).type(); });
  std::size_t nodes = 1;
  if (v.is_array()) {
    for (const Json& e : v.elements()) nodes += probe_accessors(e);
  } else if (v.is_object()) {
    for (const auto& [key, e] : v.items()) nodes += probe_accessors(e);
  }
  return nodes;
}

/// Whether a JsonError message starts "line:col: ".
bool has_position(std::string_view message) {
  for (int field = 0; field < 2; ++field) {
    const std::size_t digits = message.find_first_not_of("0123456789");
    if (digits == 0 || digits == std::string_view::npos || message[digits] != ':') return false;
    message.remove_prefix(digits + 1);
  }
  return message.size() > 1 && message[0] == ' ';
}

/// True when `text` parses, after checking the value's round trips;
/// false on a JsonError with a position.  Any other exception escapes.
bool parses(const std::string& text) {
  Json v;
  try {
    v = Json::parse(text);
  } catch (const ec::JsonError& e) {
    EXPECT_TRUE(has_position(e.what())) << e.what();
    return false;
  }
  for (const int indent : {0, 2}) {
    const std::string once = v.dump(indent);
    const Json back = Json::parse(once);
    EXPECT_EQ(back, v) << once;
    EXPECT_EQ(back.dump(indent), once);
  }
  EXPECT_GE(probe_accessors(v), 1u);
  return true;
}

std::vector<std::string> corpus() {
  std::vector<std::string> docs = grammar_corpus();
  for (const auto& entry : fs::directory_iterator(std::string(DROWSY_SOURCE_DIR) + "/sweeps")) {
    if (entry.path().extension() == ".json") {
      docs.push_back(ec::read_file(entry.path().string()));
    }
  }
  return docs;
}

}  // namespace

TEST(JsonFuzz, CorpusParsesAndRoundTrips) {
  for (const std::string& doc : corpus()) {
    SCOPED_TRACE(doc);
    EXPECT_TRUE(parses(doc));
  }
}

TEST(JsonFuzz, MutatedDocumentsParseOrFailTyped) {
  std::size_t valid = 0;
  std::size_t rejected = 0;
  std::uint64_t seed = 0x15E5EEDULL;
  for (const std::string& doc : corpus()) {
    std::mt19937_64 rng(++seed);
    for (int n = 0; n < 400; ++n) {
      // Half the inputs stack two to four damages on one document.
      std::string bad = doc;
      const int rounds = n % 2 == 0 ? 1 : 2 + static_cast<int>(rng() % 3);
      for (int r = 0; r < rounds && !bad.empty(); ++r) {
        bad = rng() % 2 == 0 || r > 0 ? splice(bad, rng) : dtest::mutate(bad, rng);
      }
      SCOPED_TRACE(bad);
      (parses(bad) ? valid : rejected) += 1;
    }
  }
  // The mutators must reach the error paths and leave some inputs whole.
  EXPECT_GT(rejected, valid);
  EXPECT_GT(valid, 100u);
}

TEST(JsonFuzz, NestingIsBoundedNotRecursedToDeath) {
  // 201 levels (depths 0-200) parse; one more is a typed error; a
  // megabyte of brackets or of object openings is one too, not a stack
  // overflow.
  const auto nested = [](std::size_t levels) {
    return std::string(levels, '[') + std::string(levels, ']');
  };
  EXPECT_TRUE(parses(nested(201)));
  EXPECT_FALSE(parses(nested(202)));
  EXPECT_FALSE(parses(std::string(1 << 20, '[')));
  std::string objects;
  for (int i = 0; i < 100'000; ++i) objects += "{\"k\":";
  EXPECT_FALSE(parses(objects));
}
