/**
 * @file
 * molcache-lint: repo-specific static-analysis rules the generic tools
 * (clang-tidy, cppcheck) cannot express.  Purely textual, dependency-free
 * and fast: it strips comments and string literals, then applies one
 * regex-driven checker per rule.
 *
 * Every rule lives in kRules[] — one registry row carrying the rule
 * name, its checker, and the positive fixture that must trigger it.
 * The production scan and the --self-test walk the SAME table, so a
 * rule cannot be registered without a fixture (the self-test fails) and
 * a fixture cannot drift away from its rule (the expectation is the
 * registry row itself).
 *
 * Rules (docs/static_analysis.md has the rationale for each):
 *
 *  - naked-rand:        rand()/srand()/rand_r() outside src/util/random --
 *                       all randomness must flow through the seeded,
 *                       reproducible RandomSource hierarchy.
 *  - config-key:        every config-key literal passed to Config::get or
 *                       Config::has must be registered in
 *                       src/util/config_keys.cpp (the warnUnknownKeys
 *                       inverse: code cannot read a key the registry has
 *                       never heard of).
 *  - raw-id-param:      no raw-integer parameters with id-like names in
 *                       src/core public headers; ids must use the strong
 *                       types (MoleculeId, TileId, ClusterId, Asid,
 *                       RowIndex).
 *  - transposed-ids:    a textual (TileId{...}, MoleculeId{...}) argument
 *                       pair -- every API in this repo orders molecule
 *                       before tile, so the reversed adjacency is a
 *                       transposition even before the compiler sees it.
 *  - no-assert:         assert() in src/ -- use MOLCACHE_EXPECT/ENSURE/
 *                       INVARIANT so violations are counted and surfaced
 *                       through SimResult.
 *  - include-hygiene:   no "../" includes (project includes are
 *                       repo-root-relative), no duplicate includes, and
 *                       no <cassert>/<assert.h> in src/.
 *  - hot-path-map:      node-based container data members (std::map,
 *                       std::unordered_map, sets, std::list) in
 *                       src/core and src/service headers -- the access
 *                       hot path, including nested per-region structs
 *                       and the service's shard/tenant tables,
 *                       must use dense/flat structures (docs/perf.md);
 *                       genuinely sparse state opts out with a
 *                       `molcache-lint: allow-map` comment on or just
 *                       above the declaration.
 *  - naked-mutex:       raw std::mutex/condition_variable/lock_guard/
 *                       unique_lock/scoped_lock in src/ outside
 *                       src/util/sync.hpp -- unannotated primitives are
 *                       invisible to Clang Thread Safety Analysis; use
 *                       mc::Mutex/mc::MutexLock.
 *  - unguarded-member:  a header class declaring an mc::Mutex whose
 *                       trailing-underscore data members carry neither a
 *                       MOLCACHE_GUARDED_BY annotation nor an explicit
 *                       `// lint: unguarded(<why>)` tag.
 *  - atomic-order:      bare std::atomic load/store/fetch/exchange calls
 *                       without an explicit std::memory_order argument in
 *                       src/ -- implicit seq_cst hides the intended
 *                       ordering contract (and its cost) from review.
 *  - detached-thread:   .detach() anywhere in src/, and raw std::thread
 *                       construction outside parallelFor
 *                       (src/exec/thread_pool.*) -- detached threads
 *                       outlive scope unjoinably and break the
 *                       deterministic shutdown story.  A long-lived
 *                       owned thread (none exists today) would opt out
 *                       of the raw-thread half only with
 *                       `// lint: allow(raw-thread): <why>` on or just
 *                       above the declaration; .detach() has no hatch.
 *  - lock-across-call:  holding an mc::MutexLock across a user-callback
 *                       invocation in src/exec/ -- callbacks can run for
 *                       seconds or re-enter the caller; opt out with
 *                       `// lint: allow(lock-across-call): <why>` when
 *                       serialization is the documented contract.
 *  - sim-access-in-service: SimAccess (the quiescent-cache friend
 *                       facade over MolecularCache's sim-only mutators)
 *                       used under src/service/ -- the service serves
 *                       concurrent callers, and SimAccess's contract is
 *                       a quiescent cache; there is no hatch.  Sole
 *                       exact-path exemption: src/service/chaos.cpp,
 *                       the chaos applier the control plane runs under
 *                       the target shard's lock.
 *
 * Usage:
 *   molcache_lint --root <repo-root>               lint the tree
 *   molcache_lint --root <repo-root> --sarif p.sarif  ... and write SARIF
 *   molcache_lint --root <repo-root> --self-test   run against the bundled
 *                                                  fixtures and verify the
 *                                                  expected findings
 *
 * Exit status: 0 when clean (or the self-test expectations match), 1
 * otherwise.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Finding
{
    std::string rule;
    std::string file; // repo-relative
    int line;
    std::string message;
};

std::vector<Finding> g_findings;

void
report(const std::string &rule, const std::string &file, int line,
       const std::string &message)
{
    g_findings.push_back({rule, file, line, message});
}

/**
 * Replace comments and the contents of string/char literals with spaces
 * (newlines preserved so line numbers survive).  Keeps the quotes of
 * string literals so "..." extraction rules can opt back in via the raw
 * text when they need it.
 */
std::string
stripCommentsAndStrings(const std::string &in, bool keepStrings)
{
    std::string out;
    out.reserve(in.size());
    enum { Code, Line, Block, Str, Chr } state = Code;
    for (size_t i = 0; i < in.size(); ++i) {
        const char c = in[i];
        const char n = i + 1 < in.size() ? in[i + 1] : '\0';
        switch (state) {
        case Code:
            if (c == '/' && n == '/') {
                state = Line;
                out += "  ";
                ++i;
            } else if (c == '/' && n == '*') {
                state = Block;
                out += "  ";
                ++i;
            } else if (c == '"') {
                state = Str;
                out += '"';
            } else if (c == '\'') {
                state = Chr;
                out += '\'';
            } else {
                out += c;
            }
            break;
        case Line:
            if (c == '\n') {
                state = Code;
                out += '\n';
            } else {
                out += ' ';
            }
            break;
        case Block:
            if (c == '*' && n == '/') {
                state = Code;
                out += "  ";
                ++i;
            } else {
                out += c == '\n' ? '\n' : ' ';
            }
            break;
        case Str:
            if (c == '\\' && n != '\0') {
                out += keepStrings ? in.substr(i, 2) : std::string("  ");
                ++i;
            } else if (c == '"') {
                state = Code;
                out += '"';
            } else if (c == '\n') {
                out += '\n'; // unterminated; keep line count sane
                state = Code;
            } else {
                out += keepStrings ? c : ' ';
            }
            break;
        case Chr:
            if (c == '\\' && n != '\0') {
                out += "  ";
                ++i;
            } else if (c == '\'') {
                state = Code;
                out += '\'';
            } else {
                out += ' ';
            }
            break;
        }
    }
    return out;
}

int
lineOf(const std::string &text, size_t pos)
{
    return 1 + static_cast<int>(
                   std::count(text.begin(), text.begin() +
                              static_cast<std::ptrdiff_t>(pos), '\n'));
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** One source file, pre-stripped both ways. */
struct SourceFile
{
    std::string rel;    // repo-relative path, '/' separators
    std::string raw;    // untouched text (allowlist comments live here)
    std::string code;   // comments + string contents blanked
    std::string codeStr; // comments blanked, string contents kept
};

/** Cross-rule inputs a checker may need (today: the config-key registry). */
struct Context
{
    std::vector<std::string> registryKeys;
};

/* ------------------------------------------------------------------ */
/* Config-key registry                                                 */

/**
 * Parse the {"key", "help"} pairs out of the knownConfigKeys()
 * initializer.  The registry file keeps every entry a plain string
 * literal exactly so this stays possible.
 */
std::vector<std::string>
parseRegistry(const fs::path &registryCpp)
{
    std::vector<std::string> keys;
    const std::string text =
        stripCommentsAndStrings(readFile(registryCpp), true);
    static const std::regex entry(R"rx(\{\s*"([^"]*)"\s*,\s*")rx");
    for (auto it = std::sregex_iterator(text.begin(), text.end(), entry);
         it != std::sregex_iterator(); ++it)
        keys.push_back((*it)[1].str());
    return keys;
}

bool
registryCovers(const std::vector<std::string> &keys, const std::string &key)
{
    for (const std::string &known : keys) {
        if (!known.empty() && known.back() == '.') {
            if (key.compare(0, known.size(), known) == 0 || key == known)
                return true;
        } else if (key == known) {
            return true;
        }
    }
    return false;
}

/* ------------------------------------------------------------------ */
/* Shared helpers                                                      */

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

/**
 * True when any of raw lines [line-span, line] contains @p tag (the
 * escape-hatch comments live in the raw text; code is stripped).
 */
bool
hasTagNear(const std::string &raw, int line, int span,
           const std::string &tag)
{
    int current = 1;
    size_t start = 0;
    for (size_t i = 0; i <= raw.size(); ++i) {
        if (i == raw.size() || raw[i] == '\n') {
            if (current >= line - span && current <= line &&
                raw.substr(start, i - start).find(tag) != std::string::npos)
                return true;
            if (current > line)
                break;
            ++current;
            start = i + 1;
        }
    }
    return false;
}

/**
 * Split the balanced parenthesized argument list starting at @p open
 * (the '(' position) into top-level arguments.  Tracks (), {} and []
 * nesting; returns empty when the list never closes (macro soup).
 */
std::vector<std::string>
splitArgs(const std::string &code, size_t open)
{
    std::vector<std::string> args;
    std::string current;
    int depth = 0;
    for (size_t i = open; i < code.size(); ++i) {
        const char c = code[i];
        if (c == '(' || c == '{' || c == '[') {
            if (++depth > 1)
                current += c;
            continue;
        }
        if (c == ')' || c == '}' || c == ']') {
            if (--depth == 0) {
                if (!current.empty())
                    args.push_back(current);
                return args;
            }
            current += c;
            continue;
        }
        if (c == ',' && depth == 1) {
            args.push_back(current);
            current.clear();
            continue;
        }
        if (depth >= 1)
            current += c;
    }
    return {};
}

/* ------------------------------------------------------------------ */
/* Rules                                                               */

void
checkNakedRand(const SourceFile &f, const Context &)
{
    if (startsWith(f.rel, "src/util/random"))
        return;
    static const std::regex rx(R"((^|[^\w:.>])(std\s*::\s*)?(rand|srand|rand_r)\s*\()");
    for (auto it = std::sregex_iterator(f.code.begin(), f.code.end(), rx);
         it != std::sregex_iterator(); ++it) {
        report("naked-rand", f.rel, lineOf(f.code, static_cast<size_t>(it->position(3))),
               "use util/random.hpp (seeded, reproducible) instead of " +
                   (*it)[3].str() + "()");
    }
}

void
checkConfigKeys(const SourceFile &f, const Context &ctx)
{
    // Tests construct synthetic configs with throwaway keys; the registry
    // governs production readers (src/, bench/, examples/) only.
    if (startsWith(f.rel, "tests/"))
        return;
    static const std::regex rx(
        R"rx(\b(?:cfg|config)\s*\.\s*(?:get(?:String|Int|Double|Bool|Size)|has)\s*\(\s*"([^"]+)")rx");
    for (auto it =
             std::sregex_iterator(f.codeStr.begin(), f.codeStr.end(), rx);
         it != std::sregex_iterator(); ++it) {
        const std::string key = (*it)[1].str();
        if (!registryCovers(ctx.registryKeys, key))
            report("config-key", f.rel,
                   lineOf(f.codeStr, static_cast<size_t>(it->position(1))),
                   "config key \"" + key +
                       "\" is not registered in src/util/config_keys.cpp");
    }
}

void
checkRawIdParams(const SourceFile &f, const Context &)
{
    if (!startsWith(f.rel, "src/core/") || f.rel.find(".hpp") == std::string::npos)
        return;
    // A raw integral parameter whose name says it is an identifier.
    static const std::regex rx(
        R"(\b(u8|u16|u32|u64|int|unsigned|size_t|uint16_t|uint32_t|uint64_t)\s+(\w+)\s*[,)=])");
    static const std::regex idName(
        R"(^(asid|tile|cluster|molecule|mol|row|id)$|(Id|Asid)$)");
    for (auto it = std::sregex_iterator(f.code.begin(), f.code.end(), rx);
         it != std::sregex_iterator(); ++it) {
        const std::string name = (*it)[2].str();
        if (std::regex_search(name, idName))
            report("raw-id-param", f.rel,
                   lineOf(f.code, static_cast<size_t>(it->position(2))),
                   "parameter '" + name + "' is a raw " + (*it)[1].str() +
                       "; use the strong id type");
    }
}

void
checkHotPathMap(const SourceFile &f, const Context &)
{
    if ((!startsWith(f.rel, "src/core/") &&
         !startsWith(f.rel, "src/service/")) ||
        f.rel.find(".hpp") == std::string::npos)
        return;
    // A node-based container data member in a core or service header:
    // every class here sits on or near the access hot path, where node
    // containers cost a pointer chase per access (docs/perf.md) — the
    // service's shard/tenant tables ride the same path as the core's
    // probe structures.  Covers maps,
    // sets and lists, and members without the trailing underscore too,
    // so plain-named nested structs (MolecularCache::WayMemo,
    // Region::MolEntry and friends) are held to the same
    // dense-layout bar as classic members.  Genuinely sparse or
    // off-hot-path state (e.g. the ordered region authority that
    // resize cycles walk) opts out with the allow tag.
    static const std::regex rx(
        R"(\bstd\s*::\s*((unordered_)?(map|set|multimap|multiset)|list)\s*<[^;{}()]*>\s+\w+\s*(\{\s*\})?\s*;)");
    for (auto it = std::sregex_iterator(f.code.begin(), f.code.end(), rx);
         it != std::sregex_iterator(); ++it) {
        const int line =
            lineOf(f.code, static_cast<size_t>(it->position(0)));
        if (hasTagNear(f.raw, line, 3, "molcache-lint: allow-map"))
            continue;
        report("hot-path-map", f.rel, line,
               "node-based map member in a hot-path class; use a "
               "dense/flat structure (docs/perf.md) or annotate the "
               "declaration with 'molcache-lint: allow-map'");
    }
}

void
checkTransposedIds(const SourceFile &f, const Context &)
{
    // Every signature in this repo orders molecule before tile;
    // the reversed adjacency is a transposed call.
    static const std::regex rx(
        R"(TileId\{[^{}]*\}\s*,\s*(\w+\s*::\s*)*MoleculeId\{)");
    for (auto it = std::sregex_iterator(f.code.begin(), f.code.end(), rx);
         it != std::sregex_iterator(); ++it)
        report("transposed-ids", f.rel,
               lineOf(f.code, static_cast<size_t>(it->position(0))),
               "(TileId, MoleculeId) argument pair is transposed; this "
               "repo orders molecule before tile");
}

void
checkNoAssert(const SourceFile &f, const Context &)
{
    if (!startsWith(f.rel, "src/") || startsWith(f.rel, "src/contract/"))
        return;
    static const std::regex rx(R"((^|[^\w.:])assert\s*\()");
    for (auto it = std::sregex_iterator(f.code.begin(), f.code.end(), rx);
         it != std::sregex_iterator(); ++it)
        report("no-assert", f.rel,
               lineOf(f.code, static_cast<size_t>(it->position(0)) + 1),
               "use MOLCACHE_EXPECT/ENSURE/INVARIANT instead of assert()");
}

void
checkIncludeHygiene(const SourceFile &f, const Context &)
{
    static const std::regex rx(R"rx(#\s*include\s*([<"])([^">]+)[">])rx");
    std::set<std::string> seen;
    for (auto it =
             std::sregex_iterator(f.codeStr.begin(), f.codeStr.end(), rx);
         it != std::sregex_iterator(); ++it) {
        const std::string header = (*it)[2].str();
        const int line =
            lineOf(f.codeStr, static_cast<size_t>(it->position(0)));
        if (!seen.insert(header).second)
            report("include-hygiene", f.rel, line,
                   "duplicate include of \"" + header + "\"");
        if (startsWith(header, "../") ||
            header.find("/../") != std::string::npos)
            report("include-hygiene", f.rel, line,
                   "relative include \"" + header +
                       "\"; project includes are repo-root-relative");
        if (startsWith(f.rel, "src/") &&
            (header == "cassert" || header == "assert.h"))
            report("include-hygiene", f.rel, line,
                   "<" + header + "> in src/; contracts replace assert()");
    }
}

/* --------------------- concurrency rule family -------------------- */

void
checkNakedMutex(const SourceFile &f, const Context &)
{
    // The annotated wrappers are the only sanctioned vocabulary: a raw
    // primitive is invisible to Clang Thread Safety Analysis, so it
    // punches an unchecked hole in the lock discipline.  sync.hpp is
    // the one place allowed to touch the std types.
    if (!startsWith(f.rel, "src/") || f.rel == "src/util/sync.hpp")
        return;
    static const std::regex rx(
        R"(\bstd\s*::\s*(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|shared_mutex|shared_timed_mutex|condition_variable|condition_variable_any|lock_guard|unique_lock|scoped_lock|shared_lock)\b)");
    for (auto it = std::sregex_iterator(f.code.begin(), f.code.end(), rx);
         it != std::sregex_iterator(); ++it)
        report("naked-mutex", f.rel,
               lineOf(f.code, static_cast<size_t>(it->position(0))),
               "raw std::" + (*it)[1].str() +
                   " outside src/util/sync.hpp; use the annotated "
                   "mc::Mutex/mc::MutexLock/mc::CondVar wrappers");
}

void
checkUnguardedMember(const SourceFile &f, const Context &)
{
    // Heuristic, header-granular: a header that declares an mc::Mutex
    // member must say, for every trailing-underscore data member, which
    // mutex guards it (MOLCACHE_GUARDED_BY/MOLCACHE_PT_GUARDED_BY) or
    // why none does (`// lint: unguarded(<why>)` on or just above the
    // declaration).  std::atomic, const/static and the sync primitives
    // themselves are self-describing and exempt.
    if (!startsWith(f.rel, "src/") || f.rel == "src/util/sync.hpp" ||
        f.rel.find(".hpp") == std::string::npos)
        return;
    static const std::regex trigger(R"(\bmc\s*::\s*Mutex\s+\w+\s*;)");
    if (!std::regex_search(f.code, trigger))
        return;
    // One data-member declaration: type tokens, the member_ name, an
    // optional TSA annotation, an optional initializer, ';'.
    static const std::regex member(
        R"(\n\s*((?:[A-Za-z_][\w:]*\s*(?:<[^;{}]*>)?[\s*&]+)+)(\w+_)\s*((?:MOLCACHE_\w+\s*\([^()]*\)\s*)*)(=[^;{}]*|\{[^;{}]*\})?\s*;)");
    for (auto it = std::sregex_iterator(f.code.begin(), f.code.end(), member);
         it != std::sregex_iterator(); ++it) {
        const std::string type = (*it)[1].str();
        const std::string annotations = (*it)[3].str();
        if (annotations.find("GUARDED_BY") != std::string::npos)
            continue;
        // `return member_;` and friends parse like a declaration whose
        // "type" is the keyword; they are statements, not members.
        static const std::regex stmtKeyword(
            R"(^\s*(return|delete|throw|new|else|case|goto|co_return|co_yield|co_await)\b)");
        if (std::regex_search(type, stmtKeyword))
            continue;
        if (type.find("Mutex") != std::string::npos ||
            type.find("CondVar") != std::string::npos ||
            type.find("atomic") != std::string::npos ||
            type.find("const ") != std::string::npos ||
            type.find("static ") != std::string::npos ||
            type.find("using ") != std::string::npos ||
            type.find("typedef ") != std::string::npos)
            continue;
        const int line =
            lineOf(f.code, static_cast<size_t>(it->position(2)));
        if (hasTagNear(f.raw, line, 2, "lint: unguarded("))
            continue;
        report("unguarded-member", f.rel, line,
               "member '" + (*it)[2].str() +
                   "' in a mutex-holding class has no "
                   "MOLCACHE_GUARDED_BY; annotate it or tag the "
                   "declaration '// lint: unguarded(<why>)'");
    }
}

void
checkAtomicOrder(const SourceFile &f, const Context &)
{
    // Implicit seq_cst is almost never the intended contract on the
    // simulator's control planes; spelling the order out documents the
    // required synchronization (and its cost) at every site.
    if (!startsWith(f.rel, "src/"))
        return;
    static const std::regex rx(
        R"(\.\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*(\())");
    for (auto it = std::sregex_iterator(f.code.begin(), f.code.end(), rx);
         it != std::sregex_iterator(); ++it) {
        const size_t open = static_cast<size_t>(it->position(2));
        bool ordered = false;
        for (const std::string &arg : splitArgs(f.code, open))
            if (arg.find("memory_order") != std::string::npos)
                ordered = true;
        if (!ordered)
            report("atomic-order", f.rel,
                   lineOf(f.code, static_cast<size_t>(it->position(1))),
                   "atomic ." + (*it)[1].str() +
                       "() without an explicit std::memory_order "
                       "argument; spell the ordering out");
    }
}

void
checkDetachedThread(const SourceFile &f, const Context &)
{
    // Detached threads outlive every scope unjoinably; raw threads
    // outside parallelFor dodge its join/error discipline.  The only
    // sanctioned spawn point is parallelFor itself.
    if (!startsWith(f.rel, "src/"))
        return;
    static const std::regex detach(R"(\.\s*detach\s*\(\s*\))");
    for (auto it =
             std::sregex_iterator(f.code.begin(), f.code.end(), detach);
         it != std::sregex_iterator(); ++it)
        report("detached-thread", f.rel,
               lineOf(f.code, static_cast<size_t>(it->position(0))),
               ".detach() is banned; threads must stay joinable (owner "
               "joins, deterministic shutdown)");
    if (startsWith(f.rel, "src/exec/thread_pool"))
        return;
    static const std::regex rawThread(R"(\bstd\s*::\s*j?thread\b)");
    for (auto it =
             std::sregex_iterator(f.code.begin(), f.code.end(), rawThread);
         it != std::sregex_iterator(); ++it) {
        const int line =
            lineOf(f.code, static_cast<size_t>(it->position(0)));
        // A long-lived thread the owner joins deterministically (the
        // molcached control plane) may opt out — the tag forces the
        // shutdown story to be written down where the thread lives.
        if (hasTagNear(f.raw, line, 2, "lint: allow(raw-thread)"))
            continue;
        report("detached-thread", f.rel, line,
               "raw std::thread outside src/exec/thread_pool.*; run work "
               "through parallelFor or tag "
               "'// lint: allow(raw-thread): <why>'");
    }
}

void
checkSimAccessInService(const SourceFile &f, const Context &)
{
    // SimAccess's contract is a QUIESCENT cache (no concurrent access
    // anywhere); src/service/ exists to serve concurrent callers, so
    // the two must never meet.  Deliberately no hatch: a service-side
    // need for a sim-only mutator means the mutator needs a real,
    // locked service verb instead.  The single exact-path exemption is
    // the chaos applier, whose whole job is to drive the fault
    // injectors and which the control plane only ever calls under the
    // target shard's lock (quiescence for that shard) — the header it
    // exports must still stay SimAccess-free.
    if (!startsWith(f.rel, "src/service/"))
        return;
    if (f.rel == "src/service/chaos.cpp")
        return;
    static const std::regex simAccess(R"(\bSimAccess\b)");
    for (auto it =
             std::sregex_iterator(f.code.begin(), f.code.end(), simAccess);
         it != std::sregex_iterator(); ++it)
        report("sim-access-in-service", f.rel,
               lineOf(f.code, static_cast<size_t>(it->position(0))),
               "SimAccess inside src/service/: its contract is a "
               "quiescent cache, which a concurrent service can never "
               "guarantee; add a locked Service verb instead");
}

void
checkLockAcrossCall(const SourceFile &f, const Context &)
{
    // Exec code must not invoke a user callback (sweep bodies, progress
    // hooks, inspectors) while holding a lock: the callback can run for
    // seconds or call back into the locked object.  When serialization
    // IS the documented contract, opt out with
    // `// lint: allow(lock-across-call): <why>` on or just above the
    // invocation.
    if (!startsWith(f.rel, "src/exec/"))
        return;
    static const std::regex lockDecl(R"(\bMutexLock\s+\w+\s*\()");
    static const std::regex call(
        R"((\(\s*\*\s*\w+\s*\)\s*\()|(\b(body|progress|callback|inspect|hook|handler)\w*\s*\()|(\.\s*(progress|inspect|callback|hook|handler)\w*\s*\())");
    for (auto it =
             std::sregex_iterator(f.code.begin(), f.code.end(), lockDecl);
         it != std::sregex_iterator(); ++it) {
        // The lock is scope-shaped (MutexLock has no unlock()), so it is
        // held from the declaration to the end of the enclosing block.
        const size_t from = static_cast<size_t>(it->position(0));
        size_t end = f.code.size();
        int depth = 0;
        for (size_t i = from; i < f.code.size(); ++i) {
            if (f.code[i] == '{') {
                ++depth;
            } else if (f.code[i] == '}') {
                if (--depth < 0) {
                    end = i;
                    break;
                }
            }
        }
        const std::string span = f.code.substr(from, end - from);
        for (auto c = std::sregex_iterator(span.begin(), span.end(), call);
             c != std::sregex_iterator(); ++c) {
            const int line = lineOf(
                f.code, from + static_cast<size_t>(c->position(0)));
            if (hasTagNear(f.raw, line, 4, "lint: allow(lock-across-call)"))
                continue;
            report("lock-across-call", f.rel, line,
                   "callback invoked while an mc::MutexLock is held; "
                   "copy the state out and call after the scope closes, "
                   "or tag '// lint: allow(lock-across-call): <why>'");
        }
    }
}

/* ------------------------------------------------------------------ */
/* Rule registry                                                       */

/**
 * One row per rule: the registry drives BOTH the production scan and
 * the self-test, so there is exactly one list to extend and a new rule
 * without a positive fixture fails --self-test by construction.
 */
struct Rule
{
    const char *name;
    /** Fixture (tools/molcache_lint/fixtures/) that must trigger it. */
    const char *fixture;
    void (*check)(const SourceFile &, const Context &);
    /** Optional second positive fixture (path-scoped rules that police
     * more than one subtree prove each scope separately). */
    const char *fixture2 = nullptr;
};

const Rule kRules[] = {
    {"naked-rand", "bad_rand.cpp", checkNakedRand},
    {"config-key", "bad_config_key.cpp", checkConfigKeys},
    {"raw-id-param", "bad_core_api.hpp", checkRawIdParams},
    {"hot-path-map", "bad_core_map.hpp", checkHotPathMap,
     "bad_service_chaos.hpp"},
    {"transposed-ids", "bad_transposed.cpp", checkTransposedIds},
    {"no-assert", "bad_include.cpp", checkNoAssert},
    {"include-hygiene", "bad_include.cpp", checkIncludeHygiene},
    {"naked-mutex", "bad_naked_mutex.cpp", checkNakedMutex},
    {"unguarded-member", "bad_unguarded_member.hpp", checkUnguardedMember,
     "bad_service_chaos.hpp"},
    {"atomic-order", "bad_atomic_order.cpp", checkAtomicOrder},
    {"detached-thread", "bad_detached_thread.cpp", checkDetachedThread},
    {"lock-across-call", "bad_exec_lock_across_call.cpp",
     checkLockAcrossCall},
    {"sim-access-in-service", "bad_service_sim_access.cpp",
     checkSimAccessInService},
};

void
runAllRules(const SourceFile &f, const Context &ctx)
{
    for (const Rule &rule : kRules)
        rule.check(f, ctx);
}

/* ------------------------------------------------------------------ */
/* SARIF                                                               */

void
sarifEscape(std::string &out, const std::string &s)
{
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

/**
 * Write the findings as a SARIF 2.1.0 document so the CI lint job can
 * upload them to GitHub code scanning and findings annotate the PR diff.
 */
bool
writeSarif(const fs::path &path, const std::vector<Finding> &findings)
{
    std::string doc;
    doc += "{\n"
           "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/"
           "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
           "  \"version\": \"2.1.0\",\n"
           "  \"runs\": [{\n"
           "    \"tool\": {\"driver\": {\n"
           "      \"name\": \"molcache_lint\",\n"
           "      \"informationUri\": "
           "\"docs/static_analysis.md\",\n"
           "      \"rules\": [";
    bool first = true;
    for (const Rule &rule : kRules) {
        if (!first)
            doc += ", ";
        first = false;
        doc += "{\"id\": \"";
        doc += rule.name;
        doc += "\"}";
    }
    doc += "]\n    }},\n    \"results\": [";
    first = true;
    for (const Finding &f : findings) {
        if (!first)
            doc += ",";
        first = false;
        doc += "\n      {\"ruleId\": \"";
        sarifEscape(doc, f.rule);
        doc += "\", \"level\": \"error\", \"message\": {\"text\": \"";
        sarifEscape(doc, f.message);
        doc += "\"}, \"locations\": [{\"physicalLocation\": "
               "{\"artifactLocation\": {\"uri\": \"";
        sarifEscape(doc, f.file);
        doc += "\"}, \"region\": {\"startLine\": ";
        doc += std::to_string(f.line > 0 ? f.line : 1);
        doc += "}}}]}";
    }
    doc += "\n    ]\n  }]\n}\n";
    std::ofstream out(path);
    if (!out)
        return false;
    out << doc;
    return out.good();
}

/* ------------------------------------------------------------------ */
/* Driver                                                              */

bool
isSourceFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".hh";
}

std::vector<fs::path>
collect(const fs::path &root, const std::vector<std::string> &subdirs)
{
    std::vector<fs::path> files;
    for (const std::string &sub : subdirs) {
        const fs::path dir = root / sub;
        if (!fs::exists(dir))
            continue;
        for (const auto &e : fs::recursive_directory_iterator(dir))
            if (e.is_regular_file() && isSourceFile(e.path()))
                files.push_back(e.path());
    }
    std::sort(files.begin(), files.end());
    return files;
}

SourceFile
loadFile(const fs::path &path, const std::string &rel)
{
    SourceFile f;
    f.rel = rel;
    f.raw = readFile(path);
    f.code = stripCommentsAndStrings(f.raw, false);
    f.codeStr = stripCommentsAndStrings(f.raw, true);
    return f;
}

int
runTree(const fs::path &root, const fs::path &sarifPath)
{
    Context ctx;
    ctx.registryKeys = parseRegistry(root / "src/util/config_keys.cpp");
    if (ctx.registryKeys.empty()) {
        std::fprintf(stderr,
                     "molcache_lint: failed to parse the config-key "
                     "registry at %s\n",
                     (root / "src/util/config_keys.cpp").c_str());
        return 1;
    }
    for (const fs::path &p :
         collect(root, {"src", "tests", "bench", "examples"}))
        runAllRules(loadFile(p, fs::relative(p, root).generic_string()),
                    ctx);
    for (const Finding &f : g_findings)
        std::fprintf(stderr, "%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                     f.rule.c_str(), f.message.c_str());
    if (!sarifPath.empty() && !writeSarif(sarifPath, g_findings)) {
        std::fprintf(stderr, "molcache_lint: cannot write SARIF to %s\n",
                     sarifPath.c_str());
        return 1;
    }
    if (g_findings.empty()) {
        std::printf("molcache_lint: clean\n");
        return 0;
    }
    std::fprintf(stderr, "molcache_lint: %zu finding(s)\n",
                 g_findings.size());
    return 1;
}

/**
 * Self-test: lint the bundled fixtures and verify the registry's
 * expectations — every registered rule (a) ships its positive fixture
 * and (b) fires on it, while no rule fires on any good_* fixture.
 * Registering a rule without a fixture is therefore a self-test
 * failure, not silent coverage drift.
 */
int
runSelfTest(const fs::path &root)
{
    const fs::path fixtures = root / "tools/molcache_lint/fixtures";
    Context ctx;
    ctx.registryKeys = parseRegistry(root / "src/util/config_keys.cpp");
    if (ctx.registryKeys.empty() || !fs::exists(fixtures)) {
        std::fprintf(stderr, "molcache_lint: self-test setup missing\n");
        return 1;
    }
    int failures = 0;
    for (const Rule &rule : kRules) {
        for (const char *fixture : {rule.fixture, rule.fixture2}) {
            if (fixture != nullptr && !fs::exists(fixtures / fixture)) {
                std::fprintf(stderr,
                             "self-test: rule '%s' has no fixture %s — "
                             "every registered rule ships one\n",
                             rule.name, fixture);
                ++failures;
            }
        }
    }
    std::vector<fs::path> files;
    for (const auto &e : fs::recursive_directory_iterator(fixtures))
        if (e.is_regular_file() && isSourceFile(e.path()))
            files.push_back(e.path());
    std::sort(files.begin(), files.end());
    for (const fs::path &p : files) {
        // Fixtures mimic tree files: *core* fixtures play src/core
        // headers, *exec* fixtures src/exec translation units,
        // *service* fixtures src/service files, everything else a
        // generic src/ file — so path-scoped rules see the paths they
        // police.
        const std::string name = p.filename().string();
        std::string rel = "src/fixture/" + name;
        if (name.find("core") != std::string::npos)
            rel = "src/core/" + name;
        else if (name.find("exec") != std::string::npos)
            rel = "src/exec/" + name;
        else if (name.find("service") != std::string::npos)
            rel = "src/service/" + name;
        runAllRules(loadFile(p, rel), ctx);
    }

    for (const Rule &rule : kRules) {
        for (const char *fixture : {rule.fixture, rule.fixture2}) {
            if (fixture == nullptr)
                continue;
            const bool hit = std::any_of(
                g_findings.begin(), g_findings.end(),
                [&](const Finding &f) {
                    return f.rule == rule.name &&
                           f.file.find(fixture) != std::string::npos;
                });
            if (!hit) {
                std::fprintf(stderr,
                             "self-test: rule '%s' did NOT fire on %s\n",
                             rule.name, fixture);
                ++failures;
            }
        }
    }
    for (const Finding &f : g_findings) {
        if (f.file.find("good_") != std::string::npos) {
            std::fprintf(stderr,
                         "self-test: clean fixture flagged: %s:%d [%s]\n",
                         f.file.c_str(), f.line, f.rule.c_str());
            ++failures;
        }
    }
    if (failures == 0) {
        std::printf("molcache_lint self-test: %zu finding(s) across %zu "
                    "rules, all expectations met\n",
                    g_findings.size(), std::size(kRules));
        return 0;
    }
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    fs::path root = ".";
    fs::path sarif;
    bool selfTest = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root" && i + 1 < argc) {
            root = argv[++i];
        } else if (arg == "--sarif" && i + 1 < argc) {
            sarif = argv[++i];
        } else if (arg == "--self-test") {
            selfTest = true;
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: molcache_lint [--root DIR] "
                        "[--sarif PATH] [--self-test]\n");
            return 0;
        } else {
            std::fprintf(stderr, "molcache_lint: unknown option '%s'\n",
                         arg.c_str());
            return 1;
        }
    }
    return selfTest ? runSelfTest(root) : runTree(root, sarif);
}
