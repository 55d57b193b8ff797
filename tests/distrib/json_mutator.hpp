// Seeded JSON mutators shared by the parser fuzz suites.
//
// mutate() damages one serialized document four ways: byte flips,
// truncation, a dropped key anywhere in the object tree, and a type swap
// of one value.  The parsers under test must turn each result into a
// value or a typed error; round_trips() checks one input.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "expctl/json.hpp"

namespace drowsy::testing {

/// A value of a different JSON type than `v`, picked by `pick`.
inline expctl::Json swapped_type(const expctl::Json& v, std::uint64_t pick) {
  using expctl::Json;
  std::vector<Json> candidates = {
      Json(nullptr),
      Json(true),
      Json(std::int64_t{-7}),
      Json(~std::uint64_t{0}),
      Json(-0.5),
      Json(1e308),
      Json("text"),
      Json::array(),
      Json::object(),
  };
  std::vector<Json> other;
  for (Json& c : candidates) {
    if (c.type() != v.type()) other.push_back(std::move(c));
  }
  return other[pick % other.size()];
}

/// Rebuild `j` with one randomly chosen key (at any depth of nested
/// objects) dropped or its value type-swapped.
inline expctl::Json mutate_tree(const expctl::Json& j, std::mt19937_64& rng, bool drop) {
  if (!j.is_object() || j.size() == 0) return j;
  const auto& items = j.items();
  const std::size_t target = rng() % items.size();
  // Recurse into a nested object half the time, when there is one.
  const bool descend = items[target].second.is_object() && rng() % 2 == 0;
  expctl::Json out = expctl::Json::object();
  for (std::size_t k = 0; k < items.size(); ++k) {
    const auto& [key, value] = items[k];
    if (k != target) {
      out.set(key, value);
    } else if (descend) {
      out.set(key, mutate_tree(value, rng, drop));
    } else if (!drop) {
      out.set(key, swapped_type(value, rng()));
    }
  }
  return out;
}

/// One damaged copy of the serialized JSON document `text`.
inline std::string mutate(const std::string& text, std::mt19937_64& rng) {
  switch (rng() % 4) {
    case 0: {  // flip 1-4 bytes to arbitrary values
      std::string out = text;
      const int flips = 1 + static_cast<int>(rng() % 4);
      for (int f = 0; f < flips; ++f) {
        out[rng() % out.size()] = static_cast<char>(rng() % 256);
      }
      return out;
    }
    case 1:  // truncate anywhere
      return text.substr(0, rng() % text.size());
    case 2:
      return mutate_tree(expctl::Json::parse(text), rng, /*drop=*/true).dump(0);
    default:
      return mutate_tree(expctl::Json::parse(text), rng, /*drop=*/false).dump(0);
  }
}

/// Parse `text` with `parse` (Json -> value).  True when it yields a
/// value, which `render` (value -> Json) must re-serialize to a document
/// that parses back to the same bytes; false when it throws one of the
/// typed `Errors`; any other exception escapes and fails the test.
template <typename... Errors, typename Parse, typename Render>
bool round_trips(const std::string& text, Parse parse, Render render) {
  try {
    const std::string once = render(parse(expctl::Json::parse(text))).dump(0);
    EXPECT_EQ(render(parse(expctl::Json::parse(once))).dump(0), once);
    return true;
  } catch (const std::exception& e) {
    if (!((dynamic_cast<const Errors*>(&e) != nullptr) || ...)) throw;
  }
  return false;
}

inline void write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
  std::fclose(f);
}

}  // namespace drowsy::testing
