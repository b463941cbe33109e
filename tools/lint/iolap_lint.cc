// iolap_lint — project-specific static checks the generic toolchain can't
// express, run over a compilation database or a set of files/directories.
//
// The generic layers (Clang -Wthread-safety, clang-tidy, TSan/ASan) catch
// generic bug classes; the rules here encode invariants specific to iOLAP's
// exactness guarantee under intra-batch parallelism (Theorem 1: delta
// updates + uncertainty tags reproduce Q(D_i, m_i) bit-identically at any
// thread count — see docs/INTERNALS.md §8 "Static analysis"):
//
//   pool-capture      No default-capture ([&] / [=]) lambdas handed to
//                     ThreadPool::Submit / SubmitToGroup. A plain-submitted
//                     task can outlive the submitting frame until the next
//                     Wait(); a defaulted reference capture is a dangling
//                     hazard that TSan only sees on the unlucky schedule.
//   value-get         No raw std::get / std::get_if outside value.h /
//                     value.cc (and Result's own variant in status.h).
//                     Typed slot access must go through the Value accessors
//                     so the slot/register-kind bug class stays impossible.
//   rng-construction  No direct Rng construction in engine code (path
//                     contains an `exec` or `iolap` segment). Per-lane
//                     generators must come from Rng::ForLane(seed, lane) so
//                     the random stream is a pure function of (seed, lane),
//                     never of scheduling.
//   guarded-mutable   A `mutable` member of a class that owns a mutex
//                     (iolap::Mutex or std::mutex) must carry
//                     IOLAP_GUARDED_BY / IOLAP_PT_GUARDED_BY — mutable is
//                     how "logically const" races slip past const-ness.
//   failpoint-name    Failpoint names live in exactly one inventory header
//                     (failpoint_names.h), are kebab-case, and are unique.
//                     Fault-injection specs (IOLAP_FAILPOINTS) address
//                     failpoints by name, so a duplicated or oddly-spelled
//                     name silently breaks chaos schedules.
//   verifier-bypass   No direct ExprProgram::Compile outside the compiler's
//                     own files, the verifier seam (program_verifier.cc)
//                     and tests/benchmarks. Engine code goes through
//                     CompileVerified so every compiled program is
//                     statically proven sound before it executes
//                     (docs/INTERNALS.md §10).
//
// Escape hatch: a finding on line L is suppressed by `// NOLINT` or
// `// NOLINT(rule-name)` on line L, or `// NOLINTNEXTLINE(rule-name)` on
// line L-1; a `// NOLINTBEGIN(rule-name)` ... `// NOLINTEND(rule-name)`
// pair suppresses the rule for every line between them (bare NOLINTBEGIN
// covers all rules) — same spellings clang-tidy uses, so one comment can
// satisfy both tools.
//
// Frontend note: the tool lexes translation units with its own minimal
// C++ tokenizer instead of libclang, so it builds and runs anywhere the
// repo builds (the CI image and dev containers do not all ship libclang
// headers). The rules above are token-level properties, chosen so the
// lexical check is exact enough in practice; anything subtler belongs in
// the thread-safety annotations or clang-tidy layers.
//
// Exit status: 0 = no findings, 1 = findings, 2 = usage or I/O error.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Token {
  std::string text;
  int line = 0;
  bool is_ident = false;
};

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

struct FileContent {
  std::string path;           // as reported in findings
  std::vector<Token> tokens;  // comments/strings/preprocessor stripped
  std::vector<std::string> raw_lines;  // for NOLINT suppression
};

bool IsIdentChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

// Tokenizes C++ source: identifiers/numbers and single-char punctuation
// (plus "::" as one token), with comments, string/char literals (including
// raw strings) and preprocessor directives dropped.
std::vector<Token> Lex(const std::string& src) {
  std::vector<Token> out;
  int line = 1;
  size_t i = 0;
  const size_t n = src.size();
  bool at_line_start = true;
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v') {
      ++i;
      continue;
    }
    if (at_line_start && c == '#') {
      // Preprocessor directive: skip to end of line, honoring backslash
      // continuations.
      while (i < n) {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          ++line;
          i += 2;
          continue;
        }
        if (src[i] == '\n') break;
        ++i;
      }
      continue;
    }
    at_line_start = false;
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      while (i < n && src[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      i = std::min(n, i + 2);
      continue;
    }
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      // Raw string literal R"delim( ... )delim".
      size_t d = i + 2;
      std::string delim;
      while (d < n && src[d] != '(') delim.push_back(src[d++]);
      const std::string close = ")" + delim + "\"";
      size_t end = src.find(close, d);
      if (end == std::string::npos) end = n;
      for (size_t k = i; k < std::min(n, end + close.size()); ++k) {
        if (src[k] == '\n') ++line;
      }
      i = std::min(n, end + close.size());
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) {
          if (src[i + 1] == '\n') ++line;
          i += 2;
          continue;
        }
        if (src[i] == '\n') ++line;  // unterminated; keep line counts sane
        ++i;
      }
      if (i < n) ++i;
      continue;
    }
    if (IsIdentChar(c)) {
      const size_t start = i;
      while (i < n && IsIdentChar(src[i])) ++i;
      out.push_back({src.substr(start, i - start), line, true});
      continue;
    }
    if (c == ':' && i + 1 < n && src[i + 1] == ':') {
      out.push_back({"::", line, false});
      i += 2;
      continue;
    }
    out.push_back({std::string(1, c), line, false});
    ++i;
  }
  return out;
}

// True when `text` carries `marker` — as a whole word, so "NOLINT" does not
// match inside "NOLINTBEGIN" — naming `rule` (or the bare / "*" form).
bool MarkerMatches(const std::string& text, const char* marker,
                   const std::string& rule) {
  const std::string m(marker);
  size_t pos = 0;
  while ((pos = text.find(m, pos)) != std::string::npos) {
    const size_t open = pos + m.size();
    pos = open;
    // A longer marker ("NOLINT" inside "NOLINTNEXTLINE"/"NOLINTBEGIN"):
    // not this marker.
    if (open < text.size() && IsIdentChar(text[open])) continue;
    if (open >= text.size() || text[open] != '(') return true;  // bare form
    const size_t close = text.find(')', open);
    if (close == std::string::npos) continue;
    const std::string rules = text.substr(open + 1, close - open - 1);
    std::stringstream ss(rules);
    std::string item;
    while (std::getline(ss, item, ',')) {
      const size_t b = item.find_first_not_of(" \t");
      const size_t e = item.find_last_not_of(" \t");
      if (b == std::string::npos) continue;
      const std::string name = item.substr(b, e - b + 1);
      if (name == rule || name == "*") return true;
    }
  }
  return false;
}

// True when `line` (1-based) carries a NOLINT marker for `rule`, the
// previous line carries a NOLINTNEXTLINE marker for it, or the line sits
// inside a // NOLINTBEGIN(rule) ... // NOLINTEND(rule) block (clang-tidy's
// block form; bare NOLINTBEGIN opens a block for every rule).
bool Suppressed(const FileContent& file, int line, const std::string& rule) {
  if (line >= 1 && line <= static_cast<int>(file.raw_lines.size()) &&
      MarkerMatches(file.raw_lines[line - 1], "NOLINT", rule)) {
    return true;
  }
  if (line >= 2 && MarkerMatches(file.raw_lines[line - 2], "NOLINTNEXTLINE",
                                 rule)) {
    return true;
  }
  // Block form: count open BEGIN/END pairs for this rule above the finding.
  // An END on the finding line itself does not re-expose it (the block is
  // taken to cover its own closing line), matching clang-tidy.
  int depth = 0;
  const int last = std::min(line, static_cast<int>(file.raw_lines.size()));
  for (int l = 1; l <= last; ++l) {
    const std::string& text = file.raw_lines[l - 1];
    if (MarkerMatches(text, "NOLINTBEGIN", rule)) ++depth;
    if (l < line && MarkerMatches(text, "NOLINTEND", rule) && depth > 0) {
      --depth;
    }
  }
  return depth > 0;
}

void Emit(const FileContent& file, int line, const std::string& rule,
          const std::string& message, std::vector<Finding>* findings) {
  if (Suppressed(file, line, rule)) return;
  findings->push_back({file.path, line, rule, message});
}

// True when `tokens[idx]` ("[") opens a lambda introducer rather than a
// subscript or attribute: a subscript follows a value-ish token.
bool IsLambdaIntro(const std::vector<Token>& tokens, size_t idx) {
  if (idx == 0) return true;
  const Token& prev = tokens[idx - 1];
  if (prev.is_ident) {
    // `return [..]` / `case [..]` can't subscript; identifiers otherwise do.
    return prev.text == "return" || prev.text == "co_return" ||
           prev.text == "co_yield";
  }
  return prev.text != ")" && prev.text != "]";
}

// --- rule: pool-capture --------------------------------------------------

void CheckPoolCapture(const FileContent& file, std::vector<Finding>* findings) {
  const auto& t = file.tokens;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (!t[i].is_ident ||
        (t[i].text != "Submit" && t[i].text != "SubmitToGroup")) {
      continue;
    }
    if (t[i + 1].text != "(") continue;
    int depth = 0;
    for (size_t j = i + 1; j < t.size(); ++j) {
      if (t[j].text == "(") ++depth;
      if (t[j].text == ")" && --depth == 0) break;
      if (t[j].text == "[" && j + 2 < t.size() && IsLambdaIntro(t, j) &&
          (t[j + 1].text == "&" || t[j + 1].text == "=") &&
          (t[j + 2].text == "]" || t[j + 2].text == ",")) {
        Emit(file, t[j].line, "pool-capture",
             "default-capture lambda submitted to the thread pool; capture "
             "explicitly — a plain-submitted task may outlive the submitting "
             "frame until the next Wait()",
             findings);
      }
    }
  }
}

// --- rule: value-get -----------------------------------------------------

bool ValueGetAllowed(const std::string& path) {
  const std::string base = fs::path(path).filename().string();
  // value.{h,cc} own the variant; status.h's Result<T> wraps its own.
  return base == "value.h" || base == "value.cc" || base == "status.h";
}

void CheckValueGet(const FileContent& file, std::vector<Finding>* findings) {
  if (ValueGetAllowed(file.path)) return;
  const auto& t = file.tokens;
  for (size_t i = 0; i + 3 < t.size(); ++i) {
    if (t[i].text == "std" && t[i + 1].text == "::" &&
        (t[i + 2].text == "get" || t[i + 2].text == "get_if") &&
        t[i + 3].text == "<") {
      Emit(file, t[i].line, "value-get",
           "raw std::" + t[i + 2].text +
               " outside value.h; go through the Value accessors so "
               "slot/register-kind mismatches stay impossible",
           findings);
    }
  }
}

// --- rule: rng-construction ---------------------------------------------

bool InEngineCode(const std::string& path) {
  for (const auto& part : fs::path(path)) {
    if (part == "exec" || part == "iolap") return true;
  }
  return false;
}

void CheckRngConstruction(const FileContent& file,
                          std::vector<Finding>* findings) {
  if (!InEngineCode(file.path)) return;
  const auto& t = file.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (!t[i].is_ident || t[i].text != "Rng") continue;
    if (i > 0 && t[i - 1].text == "::") continue;        // qualified name
    if (i + 1 < t.size() && t[i + 1].text == "::") continue;  // Rng::ForLane
    const bool direct_temp =
        i + 1 < t.size() && (t[i + 1].text == "(" || t[i + 1].text == "{");
    const bool decl_with_args =
        i + 2 < t.size() && t[i + 1].is_ident &&
        (t[i + 2].text == "(" || t[i + 2].text == "{");
    if (direct_temp || decl_with_args) {
      Emit(file, t[i].line, "rng-construction",
           "direct Rng construction in engine code; derive per-lane "
           "generators with Rng::ForLane(seed, lane) so the stream is a "
           "pure function of (seed, lane), not of scheduling",
           findings);
    }
  }
}

// --- rule: guarded-mutable ----------------------------------------------

// Statement-level scan of class bodies: a class body that declares a
// Mutex / std::mutex member must annotate every `mutable` member with
// IOLAP_GUARDED_BY / IOLAP_PT_GUARDED_BY.
void CheckGuardedMutable(const FileContent& file,
                         std::vector<Finding>* findings) {
  struct Frame {
    bool class_body = false;
    bool has_mutex = false;
    // Member-level statements seen so far: (line of `mutable`, annotated).
    std::vector<std::pair<int, bool>> mutables;
    // Current statement accumulation.
    bool stmt_has_mutable = false;
    bool stmt_has_guard = false;
    bool stmt_has_paren = false;
    bool stmt_has_mutex = false;
    int stmt_mutable_line = 0;
  };
  const auto& t = file.tokens;
  std::vector<Frame> stack;
  auto end_stmt = [](Frame* f) {
    if (f->stmt_has_mutex) f->has_mutex = true;
    if (f->stmt_has_mutable) {
      f->mutables.emplace_back(f->stmt_mutable_line, f->stmt_has_guard);
    }
    f->stmt_has_mutable = f->stmt_has_guard = f->stmt_has_paren =
        f->stmt_has_mutex = false;
    f->stmt_mutable_line = 0;
  };
  for (size_t i = 0; i < t.size(); ++i) {
    const Token& tok = t[i];
    if (tok.text == "{") {
      Frame frame;
      // A class body iff the span since the last `;` `{` `}` contains a
      // class/struct keyword that is not `enum class`/`enum struct`.
      for (size_t j = i; j-- > 0;) {
        const std::string& p = t[j].text;
        if (p == ";" || p == "{" || p == "}") break;
        if ((p == "class" || p == "struct") &&
            !(j > 0 && t[j - 1].text == "enum")) {
          frame.class_body = true;
          break;
        }
      }
      // Entering a nested scope from inside a member statement (inline
      // function body, default initializer): the statement continues, but
      // a function body means this member is a function — reset so its
      // locals don't count as members.
      stack.push_back(frame);
      continue;
    }
    if (tok.text == "}") {
      if (!stack.empty()) {
        Frame done = stack.back();
        stack.pop_back();
        if (done.class_body) {
          end_stmt(&done);
          if (done.has_mutex) {
            for (const auto& [line, annotated] : done.mutables) {
              if (!annotated) {
                Emit(file, line, "guarded-mutable",
                     "mutable member in a mutex-owning class without "
                     "IOLAP_GUARDED_BY; state which lock guards it (or "
                     "IOLAP_PT_GUARDED_BY for pointed-to data)",
                     findings);
              }
            }
          }
        }
        // A nested function body inside a class ends the enclosing member
        // statement (no trailing `;` required after `void f() { ... }`).
        if (!stack.empty() && stack.back().class_body &&
            stack.back().stmt_has_paren) {
          end_stmt(&stack.back());
        }
      }
      continue;
    }
    if (stack.empty() || !stack.back().class_body) continue;
    Frame* f = &stack.back();
    if (tok.text == ";") {
      end_stmt(f);
      continue;
    }
    if (tok.text == "(") f->stmt_has_paren = true;
    if (tok.is_ident) {
      if (tok.text == "mutable") {
        f->stmt_has_mutable = true;
        f->stmt_mutable_line = tok.line;
      } else if (tok.text == "IOLAP_GUARDED_BY" ||
                 tok.text == "IOLAP_PT_GUARDED_BY") {
        f->stmt_has_guard = true;
      } else if (tok.text == "Mutex") {
        f->stmt_has_mutex = true;
      } else if (tok.text == "mutex" || tok.text == "shared_mutex") {
        if (i >= 2 && t[i - 1].text == "::" && t[i - 2].text == "std") {
          f->stmt_has_mutex = true;
        }
      }
    }
  }
}

// --- rule: failpoint-name ------------------------------------------------

// The failpoint inventory is an X-macro inside a #define, which the
// tokenizer drops with the rest of the preprocessor — so this rule scans
// raw lines. Inside failpoint_names.h every quoted string in the
// IOLAP_FAILPOINT_NAMES block must be kebab-case and unique; any other
// file that defines IOLAP_FAILPOINT_NAMES is declaring a second inventory.
bool IsKebabCase(const std::string& name) {
  if (name.empty()) return false;
  bool prev_dash = true;  // leading dash/empty segment is invalid
  for (char c : name) {
    if (c == '-') {
      if (prev_dash) return false;
      prev_dash = true;
    } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      prev_dash = false;
    } else {
      return false;
    }
  }
  return !prev_dash;
}

void CheckFailpointNames(const FileContent& file,
                         std::vector<Finding>* findings) {
  const std::string base = fs::path(file.path).filename().string();
  const bool inventory = base == "failpoint_names.h";
  bool in_define = false;
  std::set<std::string> names;
  for (size_t i = 0; i < file.raw_lines.size(); ++i) {
    const std::string& line = file.raw_lines[i];
    const int lineno = static_cast<int>(i) + 1;
    if (!in_define) {
      const size_t hash = line.find_first_not_of(" \t");
      if (hash == std::string::npos || line[hash] != '#') continue;
      if (line.find("define", hash) == std::string::npos) continue;
      if (line.find("IOLAP_FAILPOINT_NAMES(") == std::string::npos) continue;
      if (!inventory) {
        Emit(file, lineno, "failpoint-name",
             "failpoint inventory defined outside failpoint_names.h; the "
             "engine has exactly one inventory header so spec names can "
             "never diverge",
             findings);
        return;
      }
      in_define = true;
    }
    if (in_define) {
      // Collect the quoted names on this continuation line.
      size_t pos = 0;
      while ((pos = line.find('"', pos)) != std::string::npos) {
        const size_t end = line.find('"', pos + 1);
        if (end == std::string::npos) break;
        const std::string name = line.substr(pos + 1, end - pos - 1);
        if (!IsKebabCase(name)) {
          Emit(file, lineno, "failpoint-name",
               "failpoint name \"" + name +
                   "\" is not kebab-case ([a-z0-9] words joined by '-'); "
                   "IOLAP_FAILPOINTS specs address failpoints by name",
               findings);
        } else if (!names.insert(name).second) {
          Emit(file, lineno, "failpoint-name",
               "duplicate failpoint name \"" + name +
                   "\"; names are the spec-level identity and must be unique",
               findings);
        }
        pos = end + 1;
      }
      // The X-macro block ends at the first line without a continuation.
      if (line.empty() || line.back() != '\\') in_define = false;
    }
  }
}

// --- rule: verifier-bypass -----------------------------------------------

// Engine code must obtain compiled programs through CompileVerified
// (exec/program_verifier.h) so every program is statically verified before
// it executes; a direct ExprProgram::Compile call is a seam around the
// verifier. The compiler's own files define Compile, the verifier wraps
// it, and tests/benchmarks deliberately poke the raw path.
bool VerifierBypassAllowed(const std::string& path) {
  const std::string base = fs::path(path).filename().string();
  if (base == "expr_program.h" || base == "expr_program.cc" ||
      base == "program_verifier.cc") {
    return true;
  }
  for (const auto& part : fs::path(path)) {
    if (part == "tests" || part == "bench" || part == "examples") return true;
  }
  return false;
}

void CheckVerifierBypass(const FileContent& file,
                         std::vector<Finding>* findings) {
  if (VerifierBypassAllowed(file.path)) return;
  const auto& t = file.tokens;
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].text == "ExprProgram" && t[i + 1].text == "::" &&
        t[i + 2].text == "Compile") {
      Emit(file, t[i].line, "verifier-bypass",
           "direct ExprProgram::Compile outside the verifier seam; obtain "
           "programs via CompileVerified (exec/program_verifier.h) so every "
           "compiled program is proven sound before execution",
           findings);
    }
  }
}

// --- input gathering -----------------------------------------------------

bool HasSourceExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp" ||
         ext == ".cxx";
}

std::string Normalize(const std::string& path) {
  std::error_code ec;
  fs::path canon = fs::weakly_canonical(path, ec);
  if (ec) canon = fs::path(path).lexically_normal();
  return canon.string();
}

// Minimal compile_commands.json reader: extracts "directory" and "file"
// from each entry, resolving relative files against their directory. Only
// the two fields the tool needs are parsed; everything else is skipped.
bool ReadCompDb(const std::string& path, std::vector<std::string>* files,
                std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open compilation database: " + path;
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();

  auto read_string = [&](size_t* pos, std::string* out) {
    // *pos points at the opening quote.
    out->clear();
    for (size_t k = *pos + 1; k < json.size(); ++k) {
      const char c = json[k];
      if (c == '\\' && k + 1 < json.size()) {
        const char e = json[++k];
        switch (e) {
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'u': k += 4; out->push_back('?'); break;  // not expected here
          default: out->push_back(e); break;
        }
        continue;
      }
      if (c == '"') {
        *pos = k + 1;
        return true;
      }
      out->push_back(c);
    }
    return false;
  };

  size_t pos = 0;
  int depth = 0;
  std::string dir, file, key;
  while (pos < json.size()) {
    const char c = json[pos];
    if (c == '"') {
      std::string s;
      if (!read_string(&pos, &s)) break;
      if (depth == 2 && key.empty()) {
        key = s;  // object key; value follows after ':'
      } else if (depth == 2) {
        if (key == "directory") dir = s;
        if (key == "file") file = s;
        key.clear();
      }
      continue;
    }
    if (c == '{' || c == '[') {
      ++depth;
      if (c == '{' && depth == 2) {
        dir.clear();
        file.clear();
      }
    } else if (c == '}' || c == ']') {
      if (c == '}' && depth == 2 && !file.empty()) {
        fs::path p(file);
        if (p.is_relative() && !dir.empty()) p = fs::path(dir) / p;
        files->push_back(p.string());
      }
      --depth;
    } else if (c == ':' && depth == 2) {
      // Non-string values (numbers, etc.) are skipped by the main loop.
    }
    ++pos;
  }
  return true;
}

void CollectDir(const fs::path& dir, std::vector<std::string>* files) {
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (it->is_regular_file(ec) && HasSourceExtension(it->path())) {
      files->push_back(it->path().string());
    }
  }
  std::sort(files->begin(), files->end());
}

int Usage() {
  std::cerr
      << "usage: iolap_lint [--compdb compile_commands.json] [--under DIR]\n"
         "                  [paths...]\n"
         "Paths may be files or directories (recursed for .h/.cc/.cpp).\n"
         "--under restricts compilation-database entries to a subtree.\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> inputs;
  std::vector<std::string> compdb_files;
  std::vector<std::string> under;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--compdb") {
      if (++i >= argc) return Usage();
      std::string error;
      if (!ReadCompDb(argv[i], &compdb_files, &error)) {
        std::cerr << "iolap_lint: " << error << "\n";
        return 2;
      }
    } else if (arg == "--under") {
      if (++i >= argc) return Usage();
      under.push_back(Normalize(argv[i]));
    } else if (arg == "--help" || arg == "-h") {
      return Usage();
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty() && compdb_files.empty()) return Usage();

  // Resolve the linted file set: compdb entries (subtree-filtered), plus
  // explicit files, plus directory walks; deduplicated.
  std::set<std::string> seen;
  std::vector<std::string> files;
  auto add = [&](const std::string& path) {
    const std::string norm = Normalize(path);
    if (seen.insert(norm).second) files.push_back(norm);
  };
  for (const std::string& f : compdb_files) {
    const std::string norm = Normalize(f);
    bool keep = under.empty();
    for (const std::string& u : under) {
      keep = keep || norm.rfind(u, 0) == 0;
    }
    if (keep) add(norm);
  }
  for (const std::string& input : inputs) {
    std::error_code ec;
    if (fs::is_directory(input, ec)) {
      std::vector<std::string> found;
      CollectDir(input, &found);
      for (const std::string& f : found) add(f);
    } else {
      add(input);
    }
  }

  std::vector<Finding> findings;
  int io_errors = 0;
  for (const std::string& path : files) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "iolap_lint: cannot read " << path << "\n";
      ++io_errors;
      continue;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    FileContent file;
    file.path = path;
    const std::string src = buffer.str();
    file.tokens = Lex(src);
    std::stringstream lines(src);
    std::string line;
    while (std::getline(lines, line)) file.raw_lines.push_back(line);

    CheckPoolCapture(file, &findings);
    CheckValueGet(file, &findings);
    CheckRngConstruction(file, &findings);
    CheckGuardedMutable(file, &findings);
    CheckFailpointNames(file, &findings);
    CheckVerifierBypass(file, &findings);
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  std::map<std::string, int> per_rule;
  for (const Finding& f : findings) {
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
    ++per_rule[f.rule];
  }
  std::cout << "iolap_lint: " << findings.size() << " finding(s)";
  if (!per_rule.empty()) {
    std::cout << " [";
    bool first = true;
    for (const auto& [rule, count] : per_rule) {
      if (!first) std::cout << " ";
      first = false;
      std::cout << rule << "=" << count;
    }
    std::cout << "]";
  }
  std::cout << " over " << files.size() << " file(s)\n";
  if (io_errors > 0) return 2;
  return findings.empty() ? 0 : 1;
}
