# Writes the bundled app configs into a C++ source file as raw string
# literals, so libhmem carries them and nothing is looked up at run time.
# src/CMakeLists.txt runs it at build time, whenever an INI changes:
#
#   cmake -DCONFIG_DIR=<configs/apps> -DPAPER_APPS=a,b,... \
#         -DSTRESS_APPS=c,d -DOUT=<file.cpp> -P embed_configs.cmake
#
# PAPER_APPS and STRESS_APPS are comma-separated app names, in the order
# all_apps() and phase_shift_apps() return them; each names
# ${CONFIG_DIR}/<name>.ini.
set(delimiter "hmemapp")

# Appends `const BundledConfig <table>[] = {...};` for the named apps to
# the variable <var>.
function(append_table var table names)
  string(REPLACE "," ";" names "${names}")
  set(text "${${var}}const BundledConfig ${table}[] = {\n")
  foreach(name IN LISTS names)
    file(READ "${CONFIG_DIR}/${name}.ini" ini)
    string(FIND "${ini}" ")${delimiter}\"" clash)
    if(NOT clash EQUAL -1)
      message(FATAL_ERROR "${name}.ini contains the raw-string delimiter")
    endif()
    string(APPEND text
      "    {\"${name}\", R\"${delimiter}(${ini})${delimiter}\"},\n")
  endforeach()
  set(${var} "${text}};\n" PARENT_SCOPE)
endfunction()

string(CONCAT source
  "// Generated from configs/apps/*.ini by src/apps/embed_configs.cmake;\n"
  "// edit the INI files, not this file.\n"
  "#include \"apps/bundled_configs.hpp\"\n\n"
  "namespace hmem::apps::detail {\n"
  "namespace {\n\n")
append_table(source kPaper "${PAPER_APPS}")
string(APPEND source "\n")
append_table(source kPhaseShift "${STRESS_APPS}")
string(APPEND source
  "\n}  // namespace\n\n"
  "std::span<const BundledConfig> paper_configs() { return kPaper; }\n\n"
  "std::span<const BundledConfig> phase_shift_configs() {\n"
  "  return kPhaseShift;\n"
  "}\n\n"
  "}  // namespace hmem::apps::detail\n")
file(WRITE "${OUT}" "${source}")
