# C API surface check: the iatf_* functions declared by the C header and
# the iatf_* text symbols the library defines must be the same set. A
# declared function with no definition fails to link in C callers; a
# defined iatf_* function that is not declared is an undocumented export.
#
#   cmake -DCXX=<compiler> -DNM=<nm> -DINCLUDE=<include dir>
#         -DHEADER=<iatf.h> -DLIB=<libiatf> -P capi_symbols.cmake

foreach(var CXX NM INCLUDE HEADER LIB)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "capi_symbols: -D${var}=... is required")
  endif()
endforeach()

# Declared: preprocess the header as C (expanding its declaration
# macros) and collect every identifier iatf_* followed by '('.
execute_process(
  COMMAND ${CXX} -E -P -x c -I${INCLUDE} ${HEADER}
  OUTPUT_VARIABLE header_text
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "capi_symbols: preprocessing ${HEADER} failed")
endif()
string(REGEX MATCHALL "[^A-Za-z0-9_]iatf_[A-Za-z0-9_]+[ \t\r\n]*\\("
       calls "${header_text}")
set(declared "")
foreach(call IN LISTS calls)
  string(REGEX REPLACE "^[^A-Za-z0-9_](iatf_[A-Za-z0-9_]+).*" "\\1" name
         "${call}")
  list(APPEND declared ${name})
endforeach()
list(REMOVE_DUPLICATES declared)
list(SORT declared)

# Defined: the library's global text symbols named iatf_*.
execute_process(
  COMMAND ${NM} --defined-only ${LIB}
  OUTPUT_VARIABLE nm_text
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "capi_symbols: ${NM} ${LIB} failed")
endif()
string(REGEX MATCHALL " T iatf_[A-Za-z0-9_]+" rows "${nm_text}")
set(defined "")
foreach(row IN LISTS rows)
  string(REPLACE " T " "" name "${row}")
  list(APPEND defined ${name})
endforeach()
list(REMOVE_DUPLICATES defined)
list(SORT defined)

if(NOT declared OR NOT defined)
  message(FATAL_ERROR "capi_symbols: found no iatf_* functions in "
                      "${HEADER} or in ${LIB}")
endif()
set(missing ${declared})
list(REMOVE_ITEM missing ${defined})
set(undeclared ${defined})
list(REMOVE_ITEM undeclared ${declared})
list(LENGTH declared n_declared)
list(LENGTH defined n_defined)
message(STATUS "capi_symbols: ${n_declared} declared, ${n_defined} defined")
if(missing OR undeclared)
  message(FATAL_ERROR
    "capi_symbols: declared but not defined: ${missing}\n"
    "capi_symbols: defined but not declared: ${undeclared}")
endif()
