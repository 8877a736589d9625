#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/avcheck.h"
#include "tools/harvest.h"
#include "tools/lexer.h"
#include "tools/scopes.h"

/// \file
/// Check implementations for tools/avcheck. Everything runs over the
/// shared lexer and scope tree (lexer.h / scopes.h) plus the cross-file
/// harvest (harvest.h); nothing here re-reads raw source text, so no
/// rule can be tripped by a comment or string literal.

namespace autoview {
namespace tools {

namespace {

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

bool IsIdent(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// One lexed + scope-parsed file.
struct AFile {
  const SourceFile* src = nullptr;
  std::string rel;  // normalized repo-relative path (from "src/")
  LexedFile lexed;
  std::unique_ptr<Scope> root;
};

struct Analysis {
  std::vector<AFile> files;
  Harvest harvest;
};

std::string NormalizeRel(const std::string& path) {
  const size_t pos = path.rfind("src/");
  return pos == std::string::npos ? path : path.substr(pos);
}

// ---------------------------------------------------------------------------
// Suppression: `avcheck:allow(<check>): <rationale>` on the finding's
// line or up to 3 lines above. The rationale text is mandatory.

bool SuppressedAt(const LexedFile& lexed, int line, const std::string& check) {
  const int lo = std::max(1, line - 3);
  const int hi = std::min(line, static_cast<int>(lexed.lines.size()));
  const std::string marker = "avcheck:allow(";
  for (int ln = lo; ln <= hi; ++ln) {
    const std::string& c = lexed.lines[ln - 1].comment;
    size_t at = c.find(marker);
    if (at == std::string::npos) continue;
    size_t open = at + marker.size();
    size_t close = c.find(')', open);
    if (close == std::string::npos) continue;
    if (Trim(c.substr(open, close - open)) != check) continue;
    std::string rationale = c.substr(close + 1);
    size_t colon = rationale.find_first_not_of(" \t");
    if (colon != std::string::npos && rationale[colon] == ':') {
      rationale = rationale.substr(colon + 1);
    }
    int meaningful = 0;
    for (char ch : rationale) {
      if (ch != ' ' && ch != '\t') ++meaningful;
    }
    if (meaningful >= 8) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Direct blocking operations (textual, on a single statement).

const std::regex& DirectBlockingRe() {
  static const std::regex re(
      R"((^|[^_A-Za-z0-9])(WaitIdle|ParallelFor|Materialize|fopen|fwrite|fread|fclose|fflush|fprintf|fgets|fscanf|fseek|ftell|rename|remove|getline)\s*\()"
      R"(|(\.|->)\s*Wait(Until|For)?\s*\()"
      R"(|(^|[^_A-Za-z0-9])(std::)?(i|o)?fstream[^_A-Za-z0-9])");
  return re;
}

/// Returns the matched blocking token ("" when none).
std::string DirectBlockingOp(const std::string& text) {
  for (std::sregex_iterator it(text.begin(), text.end(), DirectBlockingRe()),
       end;
       it != end; ++it) {
    std::string op = it->str();
    // Strip the boundary char / whitespace / '(' the regex dragged in.
    size_t b = 0;
    while (b < op.size() && !IsIdent(op[b]) && op[b] != '.' && op[b] != '-') {
      ++b;
    }
    size_t e = op.size();
    while (e > b && (op[e - 1] == '(' || op[e - 1] == ' ')) --e;
    op = op.substr(b, e - b);
    // `std::remove` / `std::rename` over iterators is the erase-remove
    // algorithm, not file I/O.
    if ((op == "remove" || op == "rename") &&
        (text.find("begin(") != std::string::npos ||
         text.find("end(") != std::string::npos)) {
      continue;
    }
    return op;
  }
  return "";
}

bool ScopeHasDirectBlocking(const Scope& scope) {
  for (const Scope::Item& item : scope.items) {
    if (item.statement) {
      if (!DirectBlockingOp(item.statement->text).empty()) return true;
      continue;
    }
    switch (item.scope->kind) {
      case Scope::Kind::kLambda:   // deferred: does not block the caller
      case Scope::Kind::kClass:
      case Scope::Kind::kFunction:
      case Scope::Kind::kEnum:
        break;
      default:
        // Control-flow headers execute too: `if (std::rename(...))`.
        if (!DirectBlockingOp(item.scope->header).empty()) return true;
        if (ScopeHasDirectBlocking(*item.scope)) return true;
        break;
    }
  }
  return false;
}

void MarkBlockingFunctions(const Scope& scope, Harvest* harvest) {
  for (const Scope::Item& item : scope.items) {
    if (!item.scope) continue;
    const Scope& child = *item.scope;
    if (child.kind == Scope::Kind::kFunction && !child.name.empty() &&
        ScopeHasDirectBlocking(child)) {
      harvest->MarkBlocking(child.name, child.cls);
    }
    MarkBlockingFunctions(child, harvest);
  }
}

Result<Analysis> BuildAnalysis(const std::vector<SourceFile>& files) {
  Analysis out;
  out.files.reserve(files.size());
  for (const SourceFile& src : files) {
    AFile af;
    af.src = &src;
    af.rel = NormalizeRel(src.path);
    af.lexed = LexSource(src.path, src.content);
    af.root = ParseScopes(af.lexed);
    out.harvest.AddFile(af.lexed, *af.root);
    out.files.push_back(std::move(af));
  }
  for (const AFile& af : out.files) {
    MarkBlockingFunctions(*af.root, &out.harvest);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Call-site resolution.

bool IsCallKeyword(const std::string& name) {
  static const std::set<std::string> kKeywords = {
      "if",     "for",    "while",  "switch",      "return", "sizeof",
      "new",    "delete", "catch",  "static_cast", "assert", "alignof",
      "decltype"};
  return kKeywords.count(name) > 0;
}

struct CallSite {
  std::string receiver;  // "" for bare calls
  std::string sep;       // "." | "->" | "::" | ""
  std::string name;
};

std::vector<CallSite> FindCallSites(const std::string& text) {
  static const std::regex re(
      R"(([A-Za-z_][A-Za-z0-9_]*)\s*(\.|->|::)\s*([A-Za-z_][A-Za-z0-9_]*)\s*\()"
      R"(|([A-Za-z_][A-Za-z0-9_]*)\s*\()");
  std::vector<CallSite> out;
  for (std::sregex_iterator it(text.begin(), text.end(), re), end;
       it != end; ++it) {
    const std::smatch& m = *it;
    CallSite call;
    if (m[3].matched) {
      call.receiver = m[1].str();
      call.sep = m[2].str();
      call.name = m[3].str();
    } else {
      call.name = m[4].str();
      // Reject a "bare" name that is actually the tail of a chain the
      // first alternative could not consume (e.g. after `)` or `>`).
      const size_t pos = static_cast<size_t>(m.position(4));
      if (pos > 0) {
        const char prev = text[pos - 1];
        if (IsIdent(prev) || prev == '.' || prev == '>' || prev == ':') {
          continue;
        }
      }
    }
    if (IsCallKeyword(call.name)) continue;
    out.push_back(std::move(call));
  }
  return out;
}

std::vector<const FunctionSig*> ResolveCall(const Harvest& harvest,
                                            const CallSite& call,
                                            const std::string& ctx_cls) {
  auto strict = [&](const std::string& cls) {
    std::vector<const FunctionSig*> out;
    for (const FunctionSig* sig : harvest.Find(call.name, cls)) {
      if (sig->cls == cls) out.push_back(sig);
    }
    return out;
  };
  if (call.sep == "::") return strict(call.receiver);
  if (!call.receiver.empty()) {
    const std::string cls =
        harvest.ResolveReceiverClass(call.receiver, ctx_cls);
    if (cls.empty()) return {};
    return strict(cls);
  }
  if (!ctx_cls.empty()) return harvest.Find(call.name, ctx_cls);
  // Free function context: only free-function signatures apply.
  std::vector<const FunctionSig*> out;
  for (const FunctionSig* sig : harvest.Find(call.name, "")) {
    if (sig->cls.empty()) out.push_back(sig);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Lock identity: `ClassName::member_` where resolvable.

std::string LockId(const Harvest& harvest, std::string expr,
                   const std::string& cls) {
  expr = Trim(expr);
  while (!expr.empty() && (expr[0] == '&' || expr[0] == '*')) {
    expr = Trim(expr.substr(1));
  }
  if (expr.rfind("this->", 0) == 0) expr = Trim(expr.substr(6));
  if (expr.rfind("this.", 0) == 0) expr = Trim(expr.substr(5));
  std::string compact;
  for (char c : expr) {
    if (c != ' ' && c != '\t') compact.push_back(c);
  }
  bool simple = !compact.empty();
  for (char c : compact) {
    if (!IsIdent(c)) simple = false;
  }
  if (simple) return cls.empty() ? compact : cls + "::" + compact;
  static const std::regex member_re(
      R"(^([A-Za-z_][A-Za-z0-9_]*)(->|\.)([A-Za-z_][A-Za-z0-9_]*)$)");
  std::smatch m;
  if (std::regex_match(compact, m, member_re)) {
    const std::string owner = harvest.ResolveReceiverClass(m[1].str(), cls);
    if (!owner.empty()) return owner + "::" + m[3].str();
  }
  return compact;
}

// ---------------------------------------------------------------------------
// Lock walk: acquisitions, acquired-before edges, blocking-under-lock.

struct HeldLock {
  std::string id;
  int line = 0;
};

struct LockGraph {
  // from -> to -> first witness "file:line".
  std::map<std::string, std::map<std::string, std::string>> edges;

  void Add(const std::string& from, const std::string& to,
           const std::string& witness) {
    edges[from].emplace(to, witness);
  }
};

struct LockWalker {
  const AFile& file;
  const Harvest& harvest;
  LockGraph* graph;
  std::vector<Finding>* findings;

  std::string Held(const std::vector<HeldLock>& held) const {
    std::string out;
    for (const HeldLock& h : held) {
      if (!out.empty()) out += ", ";
      out += h.id;
    }
    return out;
  }

  void OnStatement(const Statement& stmt, std::vector<HeldLock>* held,
                   const std::string& ctx_cls) {
    static const std::regex acquire_re(
        R"((^|[^_A-Za-z0-9])MutexLock\s+[A-Za-z_][A-Za-z0-9_]*\s*[({]([^)}]*)[)}])");
    const std::string witness = file.rel + ":" + std::to_string(stmt.line);

    for (std::sregex_iterator it(stmt.text.begin(), stmt.text.end(),
                                 acquire_re),
         end;
         it != end; ++it) {
      const std::vector<std::string> args = SplitTopLevelArgs((*it)[2].str());
      if (args.empty()) continue;
      const std::string id = LockId(harvest, args[0], ctx_cls);
      bool already = false;
      for (const HeldLock& h : *held) {
        if (h.id == id) already = true;
      }
      if (already) {
        findings->push_back(
            {file.rel, stmt.line, "lock-order",
             "acquires " + id + " while already holding it (self-deadlock)"});
        continue;
      }
      for (const HeldLock& h : *held) {
        graph->Add(h.id, id, witness);
      }
      held->push_back({id, stmt.line});
    }

    if (held->empty()) return;

    const std::string direct = DirectBlockingOp(stmt.text);
    if (!direct.empty()) {
      findings->push_back({file.rel, stmt.line, "blocking-under-lock",
                           "blocking operation '" + direct +
                               "' while holding " + Held(*held)});
    }

    for (const CallSite& call : FindCallSites(stmt.text)) {
      const std::vector<const FunctionSig*> sigs =
          ResolveCall(harvest, call, ctx_cls);
      if (!direct.empty()) {
        // Direct op already reported for this statement; still walk the
        // resolved signatures for AV_EXCLUDES edges below.
      } else {
        for (const FunctionSig* sig : sigs) {
          if (!sig->blocking) continue;
          findings->push_back(
              {file.rel, stmt.line, "blocking-under-lock",
               "call to blocking '" + call.name + "' (declared " +
                   NormalizeRel(sig->file) + ":" + std::to_string(sig->line) +
                   ") while holding " + Held(*held)});
          break;
        }
      }
      for (const FunctionSig* sig : sigs) {
        for (const std::string& ex : sig->excludes_locks) {
          const std::string exid = LockId(harvest, ex, sig->cls);
          for (const HeldLock& h : *held) {
            if (h.id == exid) {
              findings->push_back(
                  {file.rel, stmt.line, "lock-order",
                   "calls '" + call.name + "' which AV_EXCLUDES " + exid +
                       " while holding it (self-deadlock)"});
            } else {
              graph->Add(h.id, exid, witness);
            }
          }
        }
      }
    }
  }

  void Walk(const Scope& scope, std::vector<HeldLock>* held,
            const std::string& ctx_cls) {
    const size_t base = held->size();
    for (const Scope::Item& item : scope.items) {
      if (item.statement) {
        OnStatement(*item.statement, held, ctx_cls);
        continue;
      }
      const Scope& child = *item.scope;
      switch (child.kind) {
        case Scope::Kind::kFunction: {
          std::vector<HeldLock> entry;
          const std::string cls = child.cls;
          std::set<std::string> seen;
          auto seed = [&](const std::vector<std::string>& locks) {
            for (const std::string& lk : locks) {
              const std::string id = LockId(harvest, lk, cls);
              if (seen.insert(id).second) {
                entry.push_back({id, child.header_line});
              }
            }
          };
          seed(child.requires_locks);
          for (const FunctionSig* sig : harvest.Find(child.name, cls)) {
            if (sig->cls == cls) seed(sig->requires_locks);
          }
          Walk(child, &entry, cls);
          break;
        }
        case Scope::Kind::kLambda: {
          // Deferred execution: the lambda body runs with no lock from
          // this site held (ParallelFor/Submit run it on pool threads).
          std::vector<HeldLock> fresh;
          Walk(child, &fresh, ctx_cls);
          break;
        }
        case Scope::Kind::kClass: {
          std::vector<HeldLock> fresh;
          Walk(child, &fresh, child.name.empty() ? ctx_cls : child.name);
          break;
        }
        default: {
          // A control-flow header executes in the enclosing lock
          // context (`if (std::rename(...))`, `while (Materialize(...)
          // .ok())`): scan it as a synthetic statement before the body.
          if (!child.header.empty()) {
            tools::Statement header_stmt;
            header_stmt.text = child.header;
            header_stmt.line = child.header_line;
            header_stmt.end_line = child.open_line;
            OnStatement(header_stmt, held, ctx_cls);
          }
          Walk(child, held, ctx_cls);
          break;
        }
      }
    }
    held->resize(base);
  }
};

// Cycle detection over the acquired-before graph (iterative DFS; every
// back edge yields one finding with the full witness path).
void FindLockCycles(const LockGraph& graph, std::vector<Finding>* findings) {
  enum Color { kWhite, kGray, kBlack };
  std::map<std::string, Color> color;
  for (const auto& entry : graph.edges) color[entry.first] = kWhite;

  std::vector<std::string> stack;  // current DFS path
  std::set<std::string> reported;

  std::function<void(const std::string&)> dfs = [&](const std::string& u) {
    color[u] = kGray;
    stack.push_back(u);
    auto it = graph.edges.find(u);
    if (it != graph.edges.end()) {
      for (const auto& edge : it->second) {
        const std::string& v = edge.first;
        auto cit = color.find(v);
        if (cit == color.end() || cit->second == kWhite) {
          color[v] = kWhite;
          dfs(v);
        } else if (cit->second == kGray) {
          // Reconstruct the cycle v -> ... -> u -> v.
          size_t start = 0;
          while (start < stack.size() && stack[start] != v) ++start;
          std::ostringstream msg;
          msg << "lock-order cycle: ";
          std::string key;
          for (size_t i = start; i < stack.size(); ++i) {
            const std::string& from = stack[i];
            const std::string& to =
                i + 1 < stack.size() ? stack[i + 1] : v;
            const std::string& w = graph.edges.at(from).at(to);
            msg << from << " -> " << to << " (" << w << ")";
            if (i + 1 < stack.size() || to != v) msg << ", ";
            key += from + ">";
          }
          // Canonicalize so the same cycle found from two entry points
          // is reported once.
          if (reported.insert(key).second) {
            const std::string& w = graph.edges.at(stack.back()).at(v);
            const size_t colon = w.rfind(':');
            std::string wfile = w.substr(0, colon);
            int wline = colon == std::string::npos
                            ? 0
                            : std::atoi(w.c_str() + colon + 1);
            findings->push_back({wfile, wline, "lock-order", msg.str()});
          }
        }
      }
    }
    color[u] = kBlack;
    stack.pop_back();
  };

  for (const auto& entry : graph.edges) {
    if (color[entry.first] == kWhite) dfs(entry.first);
  }
}

// ---------------------------------------------------------------------------
// discarded-status: expression-statement calls whose resolved callee
// returns Status / Result.

bool TopLevelAssignment(const std::string& t) {
  int depth = 0;
  for (size_t i = 0; i < t.size(); ++i) {
    const char c = t[i];
    if (c == '(' || c == '[') ++depth;
    if (c == ')' || c == ']') --depth;
    if (c == '=' && depth == 0) {
      const char prev = i > 0 ? t[i - 1] : '\0';
      const char next = i + 1 < t.size() ? t[i + 1] : '\0';
      if (prev != '=' && prev != '<' && prev != '>' && prev != '!' &&
          next != '=') {
        return true;
      }
    }
  }
  return false;
}

bool LooksLikeDeclaration(const std::string& t) {
  static const std::regex re(
      R"(^(const\s+)?[A-Za-z_][A-Za-z0-9_:]*(\s*<[^;]*>)?(\s*[*&])*\s+[A-Za-z_][A-Za-z0-9_]*\s*[({])");
  return std::regex_search(t, re);
}

struct FinalCall {
  std::string receiver;  // "", "<expr>", or a simple identifier
  std::string sep;
  std::string name;
  bool valid = false;
};

FinalCall ExtractFinalCall(const std::string& t) {
  FinalCall out;
  if (t.empty() || t.back() != ')') return out;
  int depth = 0;
  size_t i = t.size();
  while (i > 0) {
    --i;
    if (t[i] == ')') ++depth;
    if (t[i] == '(' && --depth == 0) break;
  }
  if (t[i] != '(') return out;
  size_t e = i;
  while (e > 0 && (t[e - 1] == ' ' || t[e - 1] == '\t')) --e;
  size_t b = e;
  while (b > 0 && IsIdent(t[b - 1])) --b;
  out.name = t.substr(b, e - b);
  if (out.name.empty() || IsCallKeyword(out.name)) return out;
  size_t s = b;
  while (s > 0 && (t[s - 1] == ' ' || t[s - 1] == '\t')) --s;
  if (s >= 2 && t[s - 1] == ':' && t[s - 2] == ':') {
    out.sep = "::";
    s -= 2;
  } else if (s >= 2 && t[s - 1] == '>' && t[s - 2] == '-') {
    out.sep = "->";
    s -= 2;
  } else if (s >= 1 && t[s - 1] == '.') {
    out.sep = ".";
    s -= 1;
  }
  if (!out.sep.empty()) {
    size_t re = s;
    while (re > 0 && (t[re - 1] == ' ' || t[re - 1] == '\t')) --re;
    size_t rb = re;
    while (rb > 0 && IsIdent(t[rb - 1])) --rb;
    out.receiver = t.substr(rb, re - rb);
    if (out.receiver.empty() || rb > 0) {
      // Chained receiver (`a.b().c()`) or non-identifier prefix.
      const char prev = rb > 0 ? t[rb - 1] : '\0';
      if (out.receiver.empty() || prev == '.' || prev == '>' ||
          prev == ':' || prev == ')') {
        out.receiver = "<expr>";
      }
    }
  }
  out.valid = true;
  return out;
}

bool FirstTokenIn(const std::string& t,
                  const std::set<std::string>& words) {
  size_t i = 0;
  while (i < t.size() && !IsIdent(t[i])) {
    if (t[i] != ' ' && t[i] != '\t' && t[i] != '(') return false;
    ++i;
  }
  size_t b = i;
  while (i < t.size() && IsIdent(t[i])) ++i;
  return words.count(t.substr(b, i - b)) > 0;
}

struct DiscardWalker {
  const AFile& file;
  const Harvest& harvest;
  std::vector<Finding>* findings;

  bool CalleeReturnsStatus(const FinalCall& call,
                           const std::string& ctx_cls) const {
    auto all_status = [](const std::vector<const FunctionSig*>& sigs) {
      if (sigs.empty()) return false;
      for (const FunctionSig* sig : sigs) {
        if (!sig->returns_status && !sig->returns_result) return false;
      }
      return true;
    };
    if (call.sep == "::") {
      std::vector<const FunctionSig*> sigs;
      for (const FunctionSig* sig : harvest.Find(call.name, call.receiver)) {
        if (sig->cls == call.receiver) sigs.push_back(sig);
      }
      return all_status(sigs);
    }
    if (!call.receiver.empty() && call.receiver != "<expr>") {
      const std::string cls =
          harvest.ResolveReceiverClass(call.receiver, ctx_cls);
      if (!cls.empty()) {
        std::vector<const FunctionSig*> sigs;
        for (const FunctionSig* sig : harvest.Find(call.name, cls)) {
          if (sig->cls == cls) sigs.push_back(sig);
        }
        if (!sigs.empty()) return all_status(sigs);
      }
      return harvest.UnanimouslyReturnsStatus(call.name, "");
    }
    if (call.receiver == "<expr>") {
      return harvest.UnanimouslyReturnsStatus(call.name, "");
    }
    return all_status(harvest.Find(call.name, ctx_cls));
  }

  bool HasDiscardRationale(int line) const {
    const int lo = std::max(1, line - 2);
    for (int ln = lo;
         ln <= line && ln <= static_cast<int>(file.lexed.lines.size());
         ++ln) {
      if (Trim(file.lexed.lines[ln - 1].comment).size() >= 8) return true;
    }
    return false;
  }

  void Statement(const Statement& stmt, const std::string& ctx_cls) {
    static const std::set<std::string> kSkip = {
        "return", "co_return", "if",    "for",     "while", "switch",
        "case",   "delete",    "throw", "new",     "using", "typedef",
        "goto",   "break",     "continue", "else", "do",    "AV_CHECK",
        "AV_LOG", "static_assert"};
    std::string t = Trim(stmt.text);
    const std::string kPartial = "/*partial*/";
    if (t.size() >= kPartial.size() &&
        t.compare(t.size() - kPartial.size(), kPartial.size(), kPartial) ==
            0) {
      return;
    }
    bool void_cast = false;
    static const std::regex void_re(R"(^\(\s*void\s*\)\s*)");
    std::smatch vm;
    if (std::regex_search(t, vm, void_re)) {
      void_cast = true;
      t = t.substr(vm.length(0));
    }
    if (t.empty() || t.back() != ')') return;
    if (FirstTokenIn(t, kSkip)) return;
    if (TopLevelAssignment(t)) return;
    if (!void_cast && LooksLikeDeclaration(t)) return;
    const FinalCall call = ExtractFinalCall(t);
    if (!call.valid) return;
    if (!CalleeReturnsStatus(call, ctx_cls)) return;
    if (void_cast) {
      if (HasDiscardRationale(stmt.line)) return;
      findings->push_back(
          {file.rel, stmt.line, "discarded-status",
           "(void)-discarded Status from '" + call.name +
               "' lacks a rationale comment"});
      return;
    }
    findings->push_back(
        {file.rel, stmt.line, "discarded-status",
         "result of '" + call.name +
             "' (returns Status) is discarded; handle it or write "
             "`(void)...;  // <why ignoring is safe>`"});
  }

  void Walk(const Scope& scope, const std::string& ctx_cls) {
    for (const Scope::Item& item : scope.items) {
      if (item.statement) {
        // Only executable scopes have expression statements.
        if (scope.kind == Scope::Kind::kFunction ||
            scope.kind == Scope::Kind::kLambda ||
            scope.kind == Scope::Kind::kBlock) {
          Statement(*item.statement, ctx_cls);
        }
        continue;
      }
      const Scope& child = *item.scope;
      switch (child.kind) {
        case Scope::Kind::kClass:
          Walk(child, child.name.empty() ? ctx_cls : child.name);
          break;
        case Scope::Kind::kFunction:
          Walk(child, child.cls.empty() ? ctx_cls : child.cls);
          break;
        case Scope::Kind::kEnum:
          break;
        default:
          Walk(child, ctx_cls);
          break;
      }
    }
  }
};

// ---------------------------------------------------------------------------
// atomic-ordering: explicit memory_order_* arguments must trace to a
// rationale-carrying atomic declaration (or a local rationale comment
// for fences / unresolved objects).

void CheckAtomicOrdering(const Analysis& analysis,
                         std::vector<Finding>* findings) {
  static const std::regex order_re(R"(memory_order_[a-z_]+)");
  static const std::regex op_re(
      R"(([A-Za-z_][A-Za-z0-9_]*)\s*(\.|->)\s*(load|store|exchange|fetch_add|fetch_sub|fetch_or|fetch_and|fetch_xor|compare_exchange_weak|compare_exchange_strong|test_and_set|clear|wait|notify_one|notify_all)\s*\()");
  for (const AFile& af : analysis.files) {
    std::set<int> reported_lines;
    for (size_t li = 0; li < af.lexed.lines.size(); ++li) {
      const int ln = static_cast<int>(li) + 1;
      const std::string& code = af.lexed.lines[li].code;
      for (std::sregex_iterator it(code.begin(), code.end(), order_re), end;
           it != end; ++it) {
        if (reported_lines.count(ln)) break;
        // Context: this line plus up to 3 lines above, to find the
        // atomic object the ordering argument belongs to.
        std::string context;
        size_t token_off = 0;
        const size_t lo = li >= 3 ? li - 3 : 0;
        for (size_t j = lo; j <= li; ++j) {
          if (j == li) token_off = context.size() + it->position(0);
          context += af.lexed.lines[j].code;
          context += ' ';
        }
        std::string obj;
        for (std::sregex_iterator oit(context.begin(), context.end(), op_re),
             oend;
             oit != oend; ++oit) {
          if (static_cast<size_t>(oit->position(0)) < token_off) {
            obj = (*oit)[1].str();
          }
        }
        bool ok = false;
        std::string decl_hint;
        if (!obj.empty()) {
          auto range = analysis.harvest.atomics.equal_range(obj);
          if (range.first != range.second) {
            ok = true;
            for (auto ait = range.first; ait != range.second; ++ait) {
              if (!ait->second.has_rationale) {
                ok = false;
                decl_hint = " (declared " + NormalizeRel(ait->second.file) +
                            ":" + std::to_string(ait->second.line) +
                            " without one)";
              }
            }
          }
        }
        if (!ok && !OrderingRationaleNear(af.lexed, ln - 3, ln + 1)) {
          findings->push_back(
              {af.rel, ln, "atomic-ordering",
               "explicit " + it->str() +
                   (obj.empty() ? std::string(" use")
                                : " on '" + obj + "'") +
                   " has no ordering-rationale comment at its "
                   "declaration" +
                   decl_hint});
          reported_lines.insert(ln);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Ported grep rules (same names / scoping as the historical shell
// checks, now on lexed code so literals and comments cannot trip them).

struct LineRule {
  std::string check;
  std::string message;
  std::regex match;
  std::regex unless;       // a match is waived if this also matches
  bool has_unless = false;
  // Path predicate over the normalized rel path.
  std::function<bool(const std::string&)> applies;
};

std::vector<LineRule> BuildLineRules() {
  auto in_src = [](const std::string& rel) { return rel.rfind("src/", 0) == 0; };
  std::vector<LineRule> rules;

  {
    LineRule r;
    r.check = "no-naked-abort";
    r.message =
        "use Status/Result (util/status.h); AV_CHECK is reserved for "
        "unrecoverable invariant violations";
    r.match = std::regex(
        R"((^|[^_A-Za-z0-9])(std::)?(abort|exit|_Exit|quick_exit|terminate)\s*\()");
    r.applies = [in_src](const std::string& rel) {
      return in_src(rel) && rel != "src/util/logging.h";
    };
    rules.push_back(std::move(r));
  }
  {
    LineRule r;
    r.check = "no-ambient-randomness";
    r.message = "draw from the seeded autoview::Rng (src/util/random.h)";
    r.match = std::regex(
        R"((^|[^_A-Za-z0-9])(rand|srand|time|clock)\s*\(|std::random_device|mt19937)");
    r.applies = [in_src](const std::string& rel) {
      return in_src(rel) && rel != "src/util/random.h" &&
             rel != "src/util/random.cc";
    };
    rules.push_back(std::move(r));
  }
  {
    LineRule r;
    r.check = "no-cout";
    r.message =
        "library code must not write to stdout; use AV_LOG or return data";
    r.match = std::regex(R"(std::cout)");
    r.applies = in_src;
    rules.push_back(std::move(r));
  }
  {
    LineRule r;
    r.check = "no-raw-mutex";
    r.message =
        "use the annotated autoview::Mutex / CondVar from util/annotations.h";
    r.match = std::regex(
        R"(std::(mutex|shared_mutex|recursive_mutex|condition_variable))");
    r.applies = [in_src](const std::string& rel) {
      return in_src(rel) && rel != "src/util/annotations.h";
    };
    rules.push_back(std::move(r));
  }
  {
    LineRule r;
    r.check = "no-naked-new";
    r.message =
        "allocation must be owned on the same line "
        "(make_unique/make_shared/unique_ptr/shared_ptr)";
    r.match = std::regex(
        R"((^|[^_A-Za-z0-9])new\s+[A-Za-z_]|(^|[^_A-Za-z0-9])delete(\s|\[))");
    r.unless = std::regex(
        R"(shared_ptr<|unique_ptr<|make_shared|make_unique|=\s*delete)");
    r.has_unless = true;
    r.applies = in_src;
    rules.push_back(std::move(r));
  }
  {
    LineRule r;
    r.check = "advisor-clock-seam";
    r.message =
        "the advisor reads time only through the injected autoview::Clock "
        "(util/clock.h)";
    r.match = std::regex(
        R"(std::chrono|steady_clock|system_clock|Deadline::(AfterMillis|AfterSeconds|Infinite))");
    r.applies = [](const std::string& rel) {
      return rel == "src/core/advisor.h" || rel == "src/core/advisor.cc";
    };
    rules.push_back(std::move(r));
  }
  {
    LineRule r;
    r.check = "engine-io-confined";
    r.message =
        "engine disk I/O is confined to view_store_log.cc (the WAL) so "
        "failpoint crash coverage stays complete";
    r.match = std::regex(
        R"((^|[^_A-Za-z0-9])(std::)?(fopen|fwrite|fread|fprintf|rename|remove)\s*\()");
    r.applies = [](const std::string& rel) {
      return rel.rfind("src/engine/", 0) == 0 &&
             rel != "src/engine/view_store_log.cc";
    };
    rules.push_back(std::move(r));
  }
  return rules;
}

void RunLineRules(const Analysis& analysis, std::vector<Finding>* findings) {
  static const std::vector<LineRule> rules = BuildLineRules();
  for (const AFile& af : analysis.files) {
    for (const LineRule& rule : rules) {
      if (!rule.applies(af.rel)) continue;
      for (size_t li = 0; li < af.lexed.lines.size(); ++li) {
        const std::string& code = af.lexed.lines[li].code;
        if (!std::regex_search(code, rule.match)) continue;
        if (rule.has_unless && std::regex_search(code, rule.unless)) continue;
        findings->push_back({af.rel, static_cast<int>(li) + 1, rule.check,
                             rule.message});
      }
    }
  }
}

// mutex-annotated: a Mutex member declaration needs an AV_GUARDED_BY /
// AV_PT_GUARDED_BY / AV_REQUIRES / AV_ACQUIRE user within +/- 8 lines.
void CheckMutexAnnotated(const Analysis& analysis,
                         std::vector<Finding>* findings) {
  static const std::regex decl_re(R"((^|\s)Mutex\s+[A-Za-z_]+_\s*;)");
  static const std::regex user_re(
      R"(AV_GUARDED_BY|AV_PT_GUARDED_BY|AV_REQUIRES|AV_ACQUIRE)");
  for (const AFile& af : analysis.files) {
    if (af.rel.rfind("src/", 0) != 0) continue;
    if (af.rel == "src/util/annotations.h") continue;
    std::vector<int> decls;
    std::set<int> users;
    for (size_t li = 0; li < af.lexed.lines.size(); ++li) {
      const std::string& code = af.lexed.lines[li].code;
      if (std::regex_search(code, decl_re)) {
        decls.push_back(static_cast<int>(li) + 1);
      }
      if (std::regex_search(code, user_re)) {
        users.insert(static_cast<int>(li) + 1);
      }
    }
    for (int decl : decls) {
      bool ok = false;
      for (int l = decl - 8; l <= decl + 8; ++l) {
        if (users.count(l)) ok = true;
      }
      if (!ok) {
        findings->push_back(
            {af.rel, decl, "mutex-annotated",
             "Mutex member has no AV_GUARDED_BY / AV_REQUIRES / AV_ACQUIRE "
             "user within 8 lines — write down what it protects"});
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------

std::vector<std::string> AllCheckNames() {
  return {"lock-order",          "blocking-under-lock",
          "discarded-status",    "atomic-ordering",
          "no-naked-abort",      "no-ambient-randomness",
          "no-cout",             "no-raw-mutex",
          "no-naked-new",        "mutex-annotated",
          "engine-io-confined",  "advisor-clock-seam"};
}

Result<std::vector<Finding>> RunChecks(
    const std::vector<SourceFile>& files,
    const std::vector<std::string>& checks) {
  const std::vector<std::string> all = AllCheckNames();
  std::set<std::string> enabled;
  if (checks.empty()) {
    enabled.insert(all.begin(), all.end());
  } else {
    for (const std::string& c : checks) {
      if (std::find(all.begin(), all.end(), c) == all.end()) {
        return Status::InvalidArgument("unknown check: " + c);
      }
      enabled.insert(c);
    }
  }

  Result<Analysis> analysis = BuildAnalysis(files);
  if (!analysis.ok()) return analysis.status();
  const Analysis& a = analysis.value();

  std::vector<Finding> raw;

  if (enabled.count("lock-order") || enabled.count("blocking-under-lock")) {
    LockGraph graph;
    std::vector<Finding> lock_findings;
    for (const AFile& af : a.files) {
      if (af.rel.rfind("src/", 0) != 0) continue;
      LockWalker walker{af, a.harvest, &graph, &lock_findings};
      std::vector<HeldLock> held;
      walker.Walk(*af.root, &held, "");
    }
    if (enabled.count("lock-order")) {
      FindLockCycles(graph, &lock_findings);
    }
    for (Finding& f : lock_findings) {
      if (enabled.count(f.check)) raw.push_back(std::move(f));
    }
  }

  if (enabled.count("discarded-status")) {
    for (const AFile& af : a.files) {
      if (af.rel.rfind("src/", 0) != 0) continue;
      DiscardWalker walker{af, a.harvest, &raw};
      walker.Walk(*af.root, "");
    }
  }

  if (enabled.count("atomic-ordering")) {
    std::vector<Finding> atomic_findings;
    CheckAtomicOrdering(a, &atomic_findings);
    for (Finding& f : atomic_findings) {
      if (f.file.rfind("src/", 0) == 0) raw.push_back(std::move(f));
    }
  }

  {
    std::vector<Finding> grep_findings;
    RunLineRules(a, &grep_findings);
    CheckMutexAnnotated(a, &grep_findings);
    for (Finding& f : grep_findings) {
      if (enabled.count(f.check)) raw.push_back(std::move(f));
    }
  }

  // Suppression pass + sort + dedup.
  std::map<std::string, const AFile*> by_rel;
  for (const AFile& af : a.files) by_rel[af.rel] = &af;
  std::vector<Finding> out;
  for (Finding& f : raw) {
    auto it = by_rel.find(f.file);
    if (it != by_rel.end() &&
        SuppressedAt(it->second->lexed, f.line, f.check)) {
      continue;
    }
    out.push_back(std::move(f));
  }
  std::sort(out.begin(), out.end(), [](const Finding& x, const Finding& y) {
    if (x.file != y.file) return x.file < y.file;
    if (x.line != y.line) return x.line < y.line;
    if (x.check != y.check) return x.check < y.check;
    return x.message < y.message;
  });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Finding& x, const Finding& y) {
                          return x.file == y.file && x.line == y.line &&
                                 x.check == y.check && x.message == y.message;
                        }),
            out.end());
  return out;
}

}  // namespace tools
}  // namespace autoview
