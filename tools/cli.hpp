// Table-driven command lines for the drowsy_* tools.
//
// Every subcommand declares one table of flags.  One parser reads argv
// against it and one printer renders its usage line, so the flags a
// command accepts, the --help text and the usage errors come from the
// same rows and cannot drift apart.
//
// Exit codes: a malformed command line (unknown command, flag or
// operand, missing value, bad flag value) prints a message naming the
// token plus that command's usage line and exits 2; any other exception
// prints "<tool> <command>: <what>" and exits 1.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace drowsy::cli {

/// A malformed command line (exit 2).  Flag setters and commands may
/// throw it; setters may also throw any std::exception, which the parser
/// turns into a UsageError naming the flag.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One row of a subcommand's flag table.
struct Flag {
  std::string name;     ///< "--threads"
  std::string metavar;  ///< "N"; empty for a switch, which takes no value
  std::function<void(const std::string&)> set;  ///< gets the value ("" for a switch)
  bool repeatable = false;
  bool required = false;
};

/// How many operands a command takes.
enum class Arity { none, one, any };  // `any` includes zero

/// One subcommand: its words, its operands, its flags and its body.
struct Command {
  std::string name;     ///< "shard plan"
  Arity arity;
  std::string operand;  ///< usage text, "<sweep.json>"; empty when arity is none
  std::vector<Flag> flags;
  std::function<int(const std::vector<std::string>& operands)> run;
};

/// `text` as a T — an unsigned integer (no sign), a signed integer, or a
/// finite double.  The whole token must parse: "3x" or "10ms" throws,
/// never yields a silent prefix.  Range checks stay with the caller.
template <typename T>
T parse_number(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    throw std::runtime_error("\"" + text + "\" is not " +
                             (std::is_floating_point_v<T> ? "a number"
                              : std::is_unsigned_v<T>     ? "a non-negative integer"
                                                          : "an integer"));
  }
  return value;
}

inline Flag text(std::string name, std::string metavar, std::string& target,
                 bool required = false) {
  return {std::move(name), std::move(metavar),
          [&target](const std::string& v) { target = v; }, false, required};
}

inline Flag list(std::string name, std::string metavar, std::vector<std::string>& target,
                 bool required = false) {
  return {std::move(name), std::move(metavar),
          [&target](const std::string& v) { target.push_back(v); }, true, required};
}

inline Flag toggle(std::string name, bool& target, bool value = true) {
  return {std::move(name), "", [&target, value](const std::string&) { target = value; }};
}

template <typename T>
Flag number(std::string name, std::string metavar, T& target) {
  return {std::move(name), std::move(metavar),
          [&target](const std::string& v) { target = parse_number<T>(v); }};
}

/// A numeric flag whose value must be > 0.
template <typename T>
Flag positive(std::string name, std::string metavar, T& target, bool required = false) {
  return {std::move(name), std::move(metavar),
          [&target](const std::string& v) {
            target = parse_number<T>(v);
            if (!(target > 0)) throw std::runtime_error("must be positive");
          },
          false, required};
}

/// "shard plan <sweep.json> --shards N [--strategy S] [--costs J]..."
inline std::string usage_line(const Command& cmd) {
  std::string line = cmd.name;
  if (!cmd.operand.empty()) line += " " + cmd.operand;
  for (const Flag& flag : cmd.flags) {
    std::string item = flag.name;
    if (!flag.metavar.empty()) item += " " + flag.metavar;
    line += flag.required ? " " + item : " [" + item + "]";
    if (flag.repeatable) line += "...";
  }
  return line;
}

/// Feed `args` (the tokens after the command's words) through `cmd`'s
/// flag table, calling each flag's setter; returns the operands.
inline std::vector<std::string> parse(const Command& cmd,
                                      const std::vector<std::string>& args) {
  std::vector<std::string> operands;
  std::vector<bool> seen(cmd.flags.size(), false);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& token = args[i];
    if (token.empty() || token[0] != '-') {
      if (cmd.arity == Arity::none || (cmd.arity == Arity::one && !operands.empty())) {
        throw UsageError("unexpected operand \"" + token + "\"");
      }
      operands.push_back(token);
      continue;
    }
    std::size_t f = 0;
    while (f < cmd.flags.size() && cmd.flags[f].name != token) ++f;
    if (f == cmd.flags.size()) throw UsageError("unknown flag \"" + token + "\"");
    const Flag& flag = cmd.flags[f];
    if (seen[f] && !flag.repeatable) throw UsageError(token + " given twice");
    seen[f] = true;
    std::string value;
    if (!flag.metavar.empty()) {
      if (++i == args.size()) throw UsageError(token + " requires a value");
      value = args[i];
    }
    try {
      flag.set(value);
    } catch (const std::exception& e) {
      throw UsageError(token + ": " + e.what());
    }
  }
  for (std::size_t f = 0; f < cmd.flags.size(); ++f) {
    if (cmd.flags[f].required && !seen[f]) {
      throw UsageError(cmd.flags[f].name + " is required");
    }
  }
  if (cmd.arity == Arity::one && operands.empty()) {
    throw UsageError("missing " + cmd.operand);
  }
  return operands;
}

/// Every command's usage line, then a pointer to the full reference.
inline void print_usage(std::FILE* out, const char* argv0, const std::vector<Command>& commands,
                        const char* reference) {
  for (std::size_t c = 0; c < commands.size(); ++c) {
    std::fprintf(out, "%s %s %s\n", c == 0 ? "usage:" : "      ", argv0,
                 usage_line(commands[c]).c_str());
  }
  std::fprintf(out, "see %s for the full reference\n", reference);
}

/// The whole tool: `--help` (also -h, help) prints every usage line and
/// exits 0; otherwise pick the command whose words start argv[1..],
/// parse the rest against its table and run it.
inline int run(int argc, char** argv, const char* tool, const std::vector<Command>& commands,
               const char* reference) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && (args[0] == "--help" || args[0] == "-h" || args[0] == "help")) {
    print_usage(stdout, argv[0], commands, reference);
    return 0;
  }
  const Command* cmd = nullptr;
  std::size_t words = 0;
  for (const Command& candidate : commands) {
    words = 1 + static_cast<std::size_t>(
                    std::count(candidate.name.begin(), candidate.name.end(), ' '));
    if (args.size() < words) continue;
    std::string said = args[0];
    for (std::size_t w = 1; w < words; ++w) said += " " + args[w];
    if (said == candidate.name) {
      cmd = &candidate;
      break;
    }
  }
  if (cmd == nullptr) {
    if (!args.empty()) {
      // Name the verb too when the first word is a group ("shard bogus").
      std::string said = args[0];
      for (const Command& candidate : commands) {
        if (args.size() > 1 && candidate.name.starts_with(args[0] + " ")) {
          said += " " + args[1];
          break;
        }
      }
      std::fprintf(stderr, "unknown command \"%s\"\n", said.c_str());
    }
    print_usage(stderr, argv[0], commands, reference);
    return 2;
  }
  try {
    return cmd->run(parse(*cmd, {args.begin() + static_cast<std::ptrdiff_t>(words), args.end()}));
  } catch (const UsageError& e) {
    std::fprintf(stderr, "%s\nusage: %s %s\n", e.what(), argv[0], usage_line(*cmd).c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s %s: %s\n", tool, cmd->name.c_str(), e.what());
    return 1;
  }
}

}  // namespace drowsy::cli
