#include "lint/index.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "lint/text.hpp"

namespace cdsf::lint {

namespace {

constexpr std::size_t npos = ProjectIndex::npos;

bool is_keyword(std::string_view word) {
  static constexpr std::array<std::string_view, 22> kKeywords = {
      "if",      "for",       "while",    "switch",        "catch",    "return",
      "sizeof",  "alignof",   "alignas",  "decltype",      "noexcept", "static_assert",
      "new",     "delete",    "throw",    "co_await",      "co_yield", "co_return",
      "case",    "requires",  "typeid",   "static_cast"};
  return std::find(kKeywords.begin(), kKeywords.end(), word) != kKeywords.end();
}

// ---------------------------------------------------------------------------
// #include edges

void index_includes(const SourceFile& file, std::size_t fid,
                    const std::map<std::string, std::size_t, std::less<>>& by_path,
                    ProjectIndex& out) {
  const std::string_view text = file.scrubbed();
  const std::string_view raw = file.raw();
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t line_end = text.find('\n', pos);
    const std::size_t stop = line_end == std::string_view::npos ? text.size() : line_end;
    std::size_t cursor = skip_ws(text, pos);
    if (cursor < stop && text[cursor] == '#') {
      cursor = skip_ws(text, cursor + 1);
      static constexpr std::string_view kInclude = "include";
      if (text.compare(cursor, kInclude.size(), kInclude) == 0) {
        cursor = skip_ws(text, cursor + kInclude.size());
        // Quoted includes only: angle includes are system/external headers,
        // which the layer manifest never constrains.
        if (cursor < stop && text[cursor] == '"') {
          // Contents are blanked in the scrubbed view; read the target from
          // the raw view between the (still visible) quote offsets.
          const std::size_t close = text.find('"', cursor + 1);
          if (close != std::string_view::npos && close < stop) {
            IncludeRef ref;
            ref.from_file = fid;
            ref.target = normalize_path(raw.substr(cursor + 1, close - cursor - 1));
            ref.line = file.line_of(cursor);
            ref.to_file = npos;
            // Resolution: exact same-directory join first, then a unique-ish
            // suffix match against the scanned set (sorted map → the
            // lexicographically first candidate wins deterministically).
            const std::string from = normalize_path(file.path());
            const std::size_t slash = from.rfind('/');
            if (slash != std::string::npos) {
              const auto it = by_path.find(from.substr(0, slash + 1) + ref.target);
              if (it != by_path.end()) ref.to_file = it->second;
            }
            if (ref.to_file == npos) {
              const std::string suffix = "/" + ref.target;
              for (const auto& [path, id] : by_path) {
                if (path == ref.target || ends_with(path, suffix)) {
                  ref.to_file = id;
                  break;
                }
              }
            }
            out.includes.push_back(std::move(ref));
          }
        }
      }
    }
    if (line_end == std::string_view::npos) break;
    pos = line_end + 1;
  }
}

// ---------------------------------------------------------------------------
// function definitions

/// Starting just past the close paren of a parameter list, decide whether a
/// definition body follows, skipping cv/ref qualifiers, `noexcept(...)`,
/// trailing return types, and constructor member-init lists. Returns the
/// offset of the opening `{`, or npos when this is not a definition.
std::size_t find_body_open(std::string_view text, std::size_t cursor) {
  cursor = skip_ws(text, cursor);
  while (cursor < text.size()) {
    const char c = text[cursor];
    if (c == '{') return cursor;
    if (c == ';' || c == ',' || c == ')' || c == '=') return npos;
    if (c == ':') {
      if (cursor + 1 < text.size() && text[cursor + 1] == ':') return npos;
      // Constructor member-init list: `name(...)` / `name{...}` entries
      // separated by commas, then the body brace.
      cursor = skip_ws(text, cursor + 1);
      while (true) {
        std::size_t e = cursor;
        while (e < text.size() && (is_ident_char(text[e]) || text[e] == ':')) ++e;
        if (e == cursor) return npos;
        e = skip_ws(text, e);
        if (e < text.size() && text[e] == '<') {
          e = match_bracket(text, e);
          if (e == npos) return npos;
          e = skip_ws(text, e);
        }
        if (e >= text.size() || (text[e] != '(' && text[e] != '{')) return npos;
        e = match_bracket(text, e);
        if (e == npos) return npos;
        e = skip_ws(text, e);
        if (e < text.size() && text[e] == ',') {
          cursor = skip_ws(text, e + 1);
          continue;
        }
        cursor = e;
        break;
      }
      continue;
    }
    if (c == '-' && cursor + 1 < text.size() && text[cursor + 1] == '>') {
      // Trailing return type: consume tokens up to the body or terminator.
      cursor += 2;
      while (cursor < text.size() && text[cursor] != '{' && text[cursor] != ';') {
        if (text[cursor] == '(' || text[cursor] == '<') {
          const std::size_t m = match_bracket(text, cursor);
          if (m == npos) return npos;
          cursor = m;
        } else {
          ++cursor;
        }
      }
      continue;
    }
    if (c == '&') {
      cursor = skip_ws(text, cursor + 1);
      continue;
    }
    if (is_ident_char(c)) {
      std::size_t e = cursor;
      while (e < text.size() && is_ident_char(text[e])) ++e;
      const std::string_view word = text.substr(cursor, e - cursor);
      if (word == "noexcept") {
        cursor = skip_ws(text, e);
        if (cursor < text.size() && text[cursor] == '(') {
          cursor = match_bracket(text, cursor);
          if (cursor == npos) return npos;
          cursor = skip_ws(text, cursor);
        }
        continue;
      }
      static constexpr std::array<std::string_view, 5> kSpecifiers = {"const", "override", "final",
                                                                      "mutable", "volatile"};
      if (std::find(kSpecifiers.begin(), kSpecifiers.end(), word) != kSpecifiers.end()) {
        cursor = skip_ws(text, e);
        continue;
      }
      return npos;
    }
    return npos;
  }
  return npos;
}

/// Qualified spelling of the identifier ending just before `name_pos`
/// (`Foo::Bar::` prefix walked back), or the bare name when unqualified.
std::string qualified_display(std::string_view text, std::size_t name_pos,
                              std::string_view name) {
  std::size_t start = name_pos;
  while (start >= 2 && text[start - 1] == ':' && text[start - 2] == ':') {
    std::size_t prev = start - 2;
    const std::size_t qual_start = ident_start(text, prev > 0 ? prev - 1 : 0);
    if (prev == 0 || !is_ident_char(text[prev - 1]) || qual_start > prev - 1) break;
    start = qual_start;
  }
  if (start == name_pos) return std::string(name);
  return std::string(text.substr(start, name_pos + name.size() - start));
}

void index_functions(const SourceFile& file, std::size_t fid, ProjectIndex& out) {
  const std::string_view text = file.scrubbed();
  std::size_t i = 0;
  while (i < text.size()) {
    if (!is_ident_char(text[i])) {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < text.size() && is_ident_char(text[end])) ++end;
    const std::string_view name = text.substr(i, end - i);
    const std::size_t name_pos = i;
    i = end;
    if (is_keyword(name)) continue;
    const std::size_t open = skip_ws(text, end);
    if (open >= text.size() || text[open] != '(') continue;
    const std::size_t close = match_bracket(text, open);
    if (close == npos) continue;
    const std::size_t body_open = find_body_open(text, close);
    if (body_open == npos) continue;
    const std::size_t body_close = match_bracket(text, body_open);
    if (body_close == npos) continue;
    FunctionDef def;
    def.name = std::string(name);
    def.display = qualified_display(text, name_pos, name);
    def.file = fid;
    def.line = file.line_of(name_pos);
    def.body_begin = body_open + 1;
    def.body_end = body_close - 1;
    out.functions.push_back(std::move(def));
    // Scanning resumes inside the body, jumping over the parameter list and
    // any constructor init-list (whose `member_(value)` entries would
    // otherwise look like nested definitions). Local definitions nested in
    // the body (lambdas excepted) are indexed as the scan passes over them.
    i = body_open + 1;
  }
}

void index_calls(const SourceFile& file, ProjectIndex& out, std::size_t func_begin,
                 std::size_t func_end) {
  const std::string_view text = file.scrubbed();
  for (std::size_t fi = func_begin; fi < func_end; ++fi) {
    const FunctionDef& def = out.functions[fi];
    std::set<std::string, std::less<>> seen;
    std::size_t i = def.body_begin;
    while (i < def.body_end) {
      if (!is_ident_char(text[i])) {
        ++i;
        continue;
      }
      std::size_t end = i;
      while (end < def.body_end && is_ident_char(text[end])) ++end;
      const std::string_view name = text.substr(i, end - i);
      const std::size_t name_pos = i;
      i = end;
      if (is_keyword(name)) continue;
      const std::size_t open = skip_ws(text, end);
      if (open >= def.body_end || text[open] != '(') continue;
      if (seen.count(name) != 0) continue;
      seen.emplace(name);
      out.calls.push_back({fi, std::string(name), file.line_of(name_pos)});
    }
  }
}

// ---------------------------------------------------------------------------
// mutex declarations and lock sites

void index_mutexes(const SourceFile& file, std::size_t fid, ProjectIndex& out) {
  const std::string_view text = file.scrubbed();
  static constexpr std::array<std::string_view, 6> kTypes = {
      "mutex",           "shared_mutex",       "recursive_mutex",
      "timed_mutex",     "shared_timed_mutex", "recursive_timed_mutex"};
  for (const std::string_view type : kTypes) {
    for (std::size_t pos = find_word(text, type); pos != std::string_view::npos;
         pos = find_word(text, type, pos + 1)) {
      std::size_t cursor = skip_ws(text, pos + type.size());
      while (cursor < text.size() && (text[cursor] == '*' || text[cursor] == '&')) {
        cursor = skip_ws(text, cursor + 1);
      }
      std::size_t name_end = cursor;
      while (name_end < text.size() && is_ident_char(text[name_end])) ++name_end;
      if (name_end == cursor) continue;  // template argument, cast, etc.
      const std::size_t after = skip_ws(text, name_end);
      // Member (`;`), brace-init, local/param (`,` / `)`), or default-init:
      // anything else (e.g. `mutex` used as a following call) is not a decl.
      if (after >= text.size() ||
          (text[after] != ';' && text[after] != '{' && text[after] != ',' &&
           text[after] != ')' && text[after] != '=')) {
        continue;
      }
      MutexDecl decl;
      decl.name = std::string(text.substr(cursor, name_end - cursor));
      decl.file = fid;
      decl.line = file.line_of(cursor);
      decl.recursive = type.find("recursive") != std::string_view::npos;
      out.mutexes.push_back(std::move(decl));
    }
  }
}

/// Last identifier token inside `arg` (so `*impl_->state_mu_` → "state_mu_").
std::string_view last_identifier(std::string_view arg) {
  std::size_t end = arg.size();
  while (end > 0) {
    if (is_ident_char(arg[end - 1])) {
      const std::size_t start = ident_start(arg, end - 1);
      return arg.substr(start, end - start);
    }
    --end;
  }
  return {};
}

void index_locks(const SourceFile& file, std::size_t fid,
                 const std::set<std::string, std::less<>>& mutex_names, ProjectIndex& out) {
  const std::string_view text = file.scrubbed();
  static constexpr std::array<std::string_view, 4> kGuards = {"scoped_lock", "lock_guard",
                                                              "unique_lock", "shared_lock"};
  for (const std::string_view guard : kGuards) {
    for (std::size_t pos = find_word(text, guard); pos != std::string_view::npos;
         pos = find_word(text, guard, pos + 1)) {
      if (preceded_by_member_access(text, pos)) continue;
      std::size_t cursor = skip_ws(text, pos + guard.size());
      if (cursor < text.size() && text[cursor] == '<') {
        cursor = match_bracket(text, cursor);
        if (cursor == npos) continue;
        cursor = skip_ws(text, cursor);
      }
      // Optional guard variable name between type and argument list.
      if (cursor < text.size() && is_ident_char(text[cursor])) {
        std::size_t name_end = cursor;
        while (name_end < text.size() && is_ident_char(text[name_end])) ++name_end;
        cursor = skip_ws(text, name_end);
      }
      if (cursor >= text.size() || text[cursor] != '(') continue;
      const std::size_t close = match_bracket(text, cursor);
      if (close == npos) continue;
      const std::string_view args = text.substr(cursor + 1, close - cursor - 2);
      if (find_word(args, "defer_lock") != std::string_view::npos) continue;  // no acquisition
      LockSite site;
      site.file = fid;
      site.function = npos;  // resolved by build_index once functions exist
      site.offset = pos;
      site.line = file.line_of(pos);
      site.guard = std::string(guard);
      // Split top-level commas; each argument's trailing identifier is the
      // candidate mutex name, kept only when a declaration with that name
      // was indexed anywhere in the scan set.
      std::size_t arg_start = 0;
      int depth = 0;
      for (std::size_t k = 0; k <= args.size(); ++k) {
        const char c = k < args.size() ? args[k] : ',';
        if (c == '(' || c == '{' || c == '[' || c == '<') ++depth;
        if (c == ')' || c == '}' || c == ']' || c == '>') --depth;
        if (c == ',' && depth <= 0) {
          const std::string_view ident = last_identifier(args.substr(arg_start, k - arg_start));
          if (!ident.empty() && mutex_names.count(ident) != 0) {
            site.mutexes.emplace_back(ident);
          }
          arg_start = k + 1;
        }
      }
      if (!site.mutexes.empty()) out.locks.push_back(std::move(site));
    }
  }
}

// ---------------------------------------------------------------------------
// schema tags and metric literals

bool parse_schema_tag(std::string_view literal, std::string& base, int& version) {
  static constexpr std::string_view kPrefix = "cdsf.";
  if (literal.size() <= kPrefix.size() ||
      literal.compare(0, kPrefix.size(), kPrefix) != 0) {
    return false;
  }
  const std::size_t slash = literal.rfind('/');
  if (slash == std::string_view::npos || slash <= kPrefix.size() ||
      slash + 1 >= literal.size()) {
    return false;
  }
  for (std::size_t i = kPrefix.size(); i < slash; ++i) {
    const char c = literal[i];
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' || c == '.')) return false;
  }
  int v = 0;
  for (std::size_t i = slash + 1; i < literal.size(); ++i) {
    const char c = literal[i];
    if (c < '0' || c > '9') return false;
    v = v * 10 + (c - '0');
  }
  base = std::string(literal.substr(0, slash));
  version = v;
  return true;
}

void index_schemas(const SourceFile& file, std::size_t fid, ProjectIndex& out) {
  const std::string_view text = file.scrubbed();
  const std::string_view raw = file.raw();
  std::size_t pos = 0;
  while ((pos = text.find('"', pos)) != std::string_view::npos) {
    const std::size_t close = text.find('"', pos + 1);
    if (close == std::string_view::npos) break;
    // Raw-string delimiters stay visible in the scrubbed view, so this
    // pairing can straddle R"x( ... )x" — the blanked middle then fails the
    // full-literal match below, which is the behaviour we want anyway.
    const std::string_view literal = raw.substr(pos + 1, close - pos - 1);
    std::string base;
    int version = 0;
    if (parse_schema_tag(literal, base, version)) {
      out.schemas.push_back(
          {std::string(literal), std::move(base), version, fid, file.line_of(pos)});
    }
    pos = close + 1;
  }
}

}  // namespace

std::vector<MetricLiteral> extract_metric_literals(const SourceFile& file, std::size_t file_id) {
  std::vector<MetricLiteral> out;
  const std::string_view text = file.scrubbed();
  const std::string_view raw = file.raw();
  const auto record_at = [&](std::size_t pos) {
    if (pos >= text.size() || text[pos] != '"') return;
    const std::size_t end = text.find('"', pos + 1);
    if (end == std::string_view::npos) return;
    out.push_back(
        {std::string(raw.substr(pos + 1, end - pos - 1)), file_id, file.line_of(pos)});
  };
  // Registry mutators whose first argument is the metric name. A
  // non-literal first argument means either a different API (Batch::add,
  // StreamingSummary::add) or a computed name the lexer cannot judge.
  static constexpr std::array<std::string_view, 4> kMembers = {"add", "observe", "set_gauge",
                                                               "set_histogram_bounds"};
  for (const std::string_view member : kMembers) {
    for (std::size_t pos = find_word(text, member); pos != std::string_view::npos;
         pos = find_word(text, member, pos + 1)) {
      const std::size_t open = skip_ws(text, pos + member.size());
      if (open >= text.size() || text[open] != '(') continue;
      if (!preceded_by_member_access(text, pos)) continue;
      record_at(skip_ws(text, open + 1));
    }
  }
  // ScopedTimer carries its metric name as the first string literal of
  // the constructor argument list (the registry reference precedes it).
  static constexpr std::string_view kTimer = "ScopedTimer";
  for (std::size_t pos = find_word(text, kTimer); pos != std::string_view::npos;
       pos = find_word(text, kTimer, pos + 1)) {
    std::size_t open = skip_ws(text, pos + kTimer.size());
    // A declaration (`ScopedTimer t(...)`) puts the variable name between
    // the type and the argument list; skip it to reach the open paren.
    if (open < text.size() && is_ident_char(text[open])) {
      std::size_t name_end = open;
      while (name_end < text.size() && is_ident_char(text[name_end])) ++name_end;
      open = skip_ws(text, name_end);
    }
    if (open >= text.size() || text[open] != '(') continue;
    const std::size_t close = match_bracket(text, open);
    if (close == std::string_view::npos) continue;
    const std::size_t quote = text.find('"', open);
    if (quote < close) record_at(quote);
  }
  return out;
}

std::size_t ProjectIndex::file_id(std::string_view path) const {
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (files[i]->path() == path) return i;
  }
  return npos;
}

ProjectIndex build_index(const std::vector<SourceFile>& files) {
  ProjectIndex index;
  index.files.reserve(files.size());
  std::map<std::string, std::size_t, std::less<>> by_path;
  for (std::size_t i = 0; i < files.size(); ++i) {
    index.files.push_back(&files[i]);
    by_path.emplace(normalize_path(files[i].path()), i);
  }
  for (std::size_t i = 0; i < files.size(); ++i) {
    index_includes(files[i], i, by_path, index);
    const std::size_t func_begin = index.functions.size();
    index_functions(files[i], i, index);
    index_calls(files[i], index, func_begin, index.functions.size());
    index_mutexes(files[i], i, index);
    index_schemas(files[i], i, index);
    const std::vector<MetricLiteral> metrics = extract_metric_literals(files[i], i);
    index.metrics.insert(index.metrics.end(), metrics.begin(), metrics.end());
  }
  // Lock sites need the full mutex-name set (a guard in one file can lock a
  // member declared in a header), so they index in a second sweep.
  std::set<std::string, std::less<>> mutex_names;
  for (const MutexDecl& decl : index.mutexes) mutex_names.insert(decl.name);
  for (std::size_t i = 0; i < files.size(); ++i) {
    index_locks(files[i], i, mutex_names, index);
  }
  // Attribute each lock site to the innermost enclosing function body.
  for (LockSite& site : index.locks) {
    std::size_t best = ProjectIndex::npos;
    std::size_t best_span = static_cast<std::size_t>(-1);
    for (std::size_t fi = 0; fi < index.functions.size(); ++fi) {
      const FunctionDef& def = index.functions[fi];
      if (def.file != site.file) continue;
      if (site.offset < def.body_begin || site.offset >= def.body_end) continue;
      const std::size_t span = def.body_end - def.body_begin;
      if (span < best_span) {
        best = fi;
        best_span = span;
      }
    }
    site.function = best;
  }
  for (std::size_t fi = 0; fi < index.functions.size(); ++fi) {
    index.functions_by_name[index.functions[fi].name].push_back(fi);
  }
  return index;
}

}  // namespace cdsf::lint
