/* The native library's one translation unit: each kernel source,
 * instantiated at each index width.
 *
 * ``repro.kernels`` compiles this file into one shared library. A kernel
 * source over vertex, edge or slot indices is written once over ``IDX``
 * (the index storage type) and ``FN(name)`` (its symbol names) and
 * included here once per width of ``repro.graph.graph.index_dtype``: the
 * int32 instantiation's symbols end in ``_i32``; the int64 one keeps the
 * plain names (``phase1_walk``). ``components.c`` reads and writes int64
 * only and is included once.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

typedef int64_t i64;

#define CAT_(a, b) a##b
#define CAT(a, b) CAT_(a, b)
#define FN(name) CAT(name, WIDTH_SUFFIX)

#define IDX int32_t
#define WIDTH_SUFFIX _i32
#include "walk.c"
#include "setup.c"
#undef IDX
#undef WIDTH_SUFFIX

#define IDX int64_t
#define WIDTH_SUFFIX
#include "walk.c"
#include "setup.c"
#undef IDX
#undef WIDTH_SUFFIX

#include "components.c"
