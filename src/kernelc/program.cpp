#include "kernelc/program.hpp"

#include <cstdlib>
#include <cstring>

#include "kernelc/compiler.hpp"
#include "kernelc/encode.hpp"
#include "kernelc/lexer.hpp"
#include "kernelc/parser.hpp"
#include "kernelc/peephole.hpp"
#include "kernelc/preprocessor.hpp"
#include "kernelc/rewrite.hpp"
#include "kernelc/sema.hpp"

namespace skelcl::kc {

CompileOptions defaultCompileOptions() {
  CompileOptions options;
  const char* env = std::getenv("SKELCL_KC_OPT");
  if (env != nullptr) {
    if (std::strcmp(env, "0") == 0) options.tier = 0;
    else if (std::strcmp(env, "1") == 0) options.tier = 1;
  }
  return options;
}

std::shared_ptr<const CompiledProgram> compileProgram(const std::string& source) {
  return compileProgram(source, defaultCompileOptions());
}

std::shared_ptr<const CompiledProgram> compileProgram(const std::string& source,
                                                      const CompileOptions& options) {
  const std::string expanded = preprocess(source);  // Lexer views this string
  Lexer lexer(expanded);
  std::vector<Token> tokens = lexer.run();
  const std::uint64_t complexity = tokens.size();

  Parser parser(std::move(tokens));
  Program ast = parser.run();

  Sema sema(ast);
  const TypeTable types = sema.run();

  Compiler compiler(types, sema.functions());

  auto program = std::make_shared<CompiledProgram>();
  program->functions = compiler.run();
  markAtomicUsers(program->functions);
  program->complexity = complexity;
  program->source = source;
  program->tier = options.tier;
  if (options.tier >= 2) {
    // Struct scalar replacement frees user functions of their frames, so
    // inlining can then splice them into the skeleton kernels; both run on
    // the naive IR the peephole pass expects.
    for (FunctionCode& fn : program->functions) rewriteOptimize(fn);
    inlineCalls(program->functions);
  }
  if (options.tier >= 1) {
    for (FunctionCode& fn : program->functions) {
      peepholeOptimize(fn);
      if (options.tier >= 2) {
        lowerToRegisters(fn);
        threadShortCircuits(fn);
      }
    }
    finalizeFunctions(program->functions);
  }
  // Sema rejects redefinitions, so every name maps to exactly one function.
  for (std::size_t i = 0; i < program->functions.size(); ++i) {
    program->functionIndex.emplace(program->functions[i].name, static_cast<int>(i));
  }
  return program;
}

}  // namespace skelcl::kc
