/* Word-array native checking kernel.
 *
 * C fast path for the explicit checker's search, mirroring the pure-Python
 * word-array reference (repro/native/wordsearch.py) instruction for
 * instruction.  Mask evaluation is not here: every backend evaluates
 * po-pair masks through the same IR lowering (repro/compile/lower_masks.py).
 *
 *   Problem        -- one execution's flattened search problem, built from
 *                     repro.native.problem.KernelProblem: the decision
 *                     plan, coherence orders, read-from candidates and
 *                     program order as contiguous int32/uint64 buffers.
 *   Problem.search -- the decide/propagate/undo backtracking search with
 *                     incremental word-array reachability, O(words) undo
 *                     via a (word-offset, old-word) trail, and cycle /
 *                     anti-program-order pruning.  Returns the first
 *                     witness found (rf sources + chosen coherence order
 *                     index per slot) or None -- iteration order matches
 *                     the Python kernels exactly, so witnesses are
 *                     bit-identical across backends.
 *   bench_reach    -- reachability add/undo micro-benchmark hook.
 *
 * Bitsets are little-endian arrays of 64-bit words: bit i lives in word
 * i >> 6 at position i & 63, byte-identical to int.to_bytes(.., "little").
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <string.h>

#define RF_INITIAL (-1)

typedef struct {
    PyObject_HEAD
    int n;            /* events */
    int nw;           /* words per event bitset */
    int nloads;
    int nplan;
    int nslots;       /* coherence slots (locations with stores) */
    int8_t *plan_kind;   /* nplan: 0 = co, 1 = rf */
    int32_t *plan_arg;   /* nplan: co slot | load position */
    int32_t *co_count;   /* nslots: orders per slot */
    int32_t *co_len;     /* nslots: stores per order */
    int64_t *co_off;     /* nslots: offset into co_flat */
    int32_t *co_flat;
    int64_t co_flat_len;
    int32_t *loads;      /* nloads: event index per load position */
    int32_t *load_slot;  /* nloads: coherence slot (-1 when storeless) */
    int32_t *rf_off;     /* nloads + 1 */
    int32_t *rf_flat;
    int32_t *thread_of;  /* n */
    uint64_t *po_before; /* n * nw */
    /* reusable search state */
    uint64_t *reach;     /* n * nw */
    int64_t *trail_off;
    uint64_t *trail_old;
    int64_t trail_cap;
    int64_t trail_len;
    int32_t *rf_choice;  /* nloads */
    int32_t *co_choice;  /* nslots: chosen order index */
    int32_t *co_position;/* n: store position in its chosen order */
} ProblemObject;

/* ------------------------------------------------------------------ */
/* construction                                                        */
/* ------------------------------------------------------------------ */

static void *
copy_bytes(PyObject *obj, Py_ssize_t expected, const char *what)
{
    char *data;
    Py_ssize_t size;
    void *copy;
    if (PyBytes_AsStringAndSize(obj, &data, &size) < 0)
        return NULL;
    if (size != expected) {
        PyErr_Format(PyExc_ValueError, "%s: expected %zd bytes, got %zd",
                     what, expected, size);
        return NULL;
    }
    copy = PyMem_Malloc(expected ? (size_t)expected : 1);
    if (copy == NULL)
        return PyErr_NoMemory();
    memcpy(copy, data, (size_t)expected);
    return copy;
}

static void
Problem_dealloc(ProblemObject *self)
{
    PyMem_Free(self->plan_kind);
    PyMem_Free(self->plan_arg);
    PyMem_Free(self->co_count);
    PyMem_Free(self->co_len);
    PyMem_Free(self->co_off);
    PyMem_Free(self->co_flat);
    PyMem_Free(self->loads);
    PyMem_Free(self->load_slot);
    PyMem_Free(self->rf_off);
    PyMem_Free(self->rf_flat);
    PyMem_Free(self->thread_of);
    PyMem_Free(self->po_before);
    PyMem_Free(self->reach);
    PyMem_RawFree(self->trail_off);
    PyMem_RawFree(self->trail_old);
    PyMem_Free(self->rf_choice);
    PyMem_Free(self->co_choice);
    PyMem_Free(self->co_position);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
Problem_init(ProblemObject *self, PyObject *args, PyObject *kwds)
{
    int n, nloads, nplan, nslots;
    PyObject *plan_kind_b, *plan_arg_b, *co_count_b, *co_len_b, *co_off_b;
    PyObject *co_flat_b, *loads_b, *load_slot_b, *rf_off_b, *rf_flat_b;
    PyObject *thread_of_b, *po_before_b;
    int i;

    if (kwds != NULL && PyDict_Size(kwds) != 0) {
        PyErr_SetString(PyExc_TypeError, "Problem takes no keyword arguments");
        return -1;
    }
    if (!PyArg_ParseTuple(args, "iiiiSSSSSSSSSSSS", &n, &nloads, &nplan,
                          &nslots, &plan_kind_b, &plan_arg_b,
                          &co_count_b, &co_len_b, &co_off_b, &co_flat_b,
                          &loads_b, &load_slot_b, &rf_off_b, &rf_flat_b,
                          &thread_of_b, &po_before_b))
        return -1;
    if (n < 0 || nloads < 0 || nplan < 0 || nslots < 0) {
        PyErr_SetString(PyExc_ValueError, "Problem: negative dimension");
        return -1;
    }
    self->n = n;
    self->nw = n > 0 ? (n + 63) >> 6 : 1;
    self->nloads = nloads;
    self->nplan = nplan;
    self->nslots = nslots;

    self->co_flat_len = (int64_t)PyBytes_GET_SIZE(co_flat_b) / 4;

    self->plan_kind = copy_bytes(plan_kind_b, nplan, "plan_kind");
    if (!self->plan_kind) return -1;
    self->plan_arg = copy_bytes(plan_arg_b, (Py_ssize_t)nplan * 4, "plan_arg");
    if (!self->plan_arg) return -1;
    self->co_count = copy_bytes(co_count_b, (Py_ssize_t)nslots * 4, "co_count");
    if (!self->co_count) return -1;
    self->co_len = copy_bytes(co_len_b, (Py_ssize_t)nslots * 4, "co_len");
    if (!self->co_len) return -1;
    self->co_off = copy_bytes(co_off_b, (Py_ssize_t)nslots * 8, "co_off");
    if (!self->co_off) return -1;
    self->co_flat = copy_bytes(co_flat_b, (Py_ssize_t)self->co_flat_len * 4,
                               "co_flat");
    if (!self->co_flat) return -1;
    self->loads = copy_bytes(loads_b, (Py_ssize_t)nloads * 4, "loads");
    if (!self->loads) return -1;
    self->load_slot = copy_bytes(load_slot_b, (Py_ssize_t)nloads * 4,
                                 "load_slot");
    if (!self->load_slot) return -1;
    self->rf_off = copy_bytes(rf_off_b, (Py_ssize_t)(nloads + 1) * 4, "rf_off");
    if (!self->rf_off) return -1;
    self->rf_flat = copy_bytes(rf_flat_b,
                               (Py_ssize_t)self->rf_off[nloads] * 4, "rf_flat");
    if (!self->rf_flat) return -1;
    self->thread_of = copy_bytes(thread_of_b, (Py_ssize_t)n * 4, "thread_of");
    if (!self->thread_of) return -1;
    self->po_before = copy_bytes(po_before_b,
                                 (Py_ssize_t)n * self->nw * 8, "po_before");
    if (!self->po_before) return -1;

    /* Validate every index the search will dereference: a bad buffer must
     * raise here, not corrupt memory later. */
    for (i = 0; i < nplan; i++) {
        int kind = self->plan_kind[i], arg = self->plan_arg[i];
        if (kind == 0 ? (arg < 0 || arg >= nslots)
                      : (kind != 1 || arg < 0 || arg >= nloads)) {
            PyErr_SetString(PyExc_ValueError, "Problem: bad plan step");
            return -1;
        }
    }
    for (i = 0; i < nslots; i++) {
        int64_t need = (int64_t)self->co_count[i] * self->co_len[i];
        int64_t j;
        if (self->co_count[i] < 0 || self->co_len[i] < 0 ||
            self->co_off[i] < 0 || self->co_off[i] + need > self->co_flat_len) {
            PyErr_SetString(PyExc_ValueError, "Problem: bad coherence table");
            return -1;
        }
        for (j = 0; j < need; j++) {
            int32_t store = self->co_flat[self->co_off[i] + j];
            if (store < 0 || store >= n) {
                PyErr_SetString(PyExc_ValueError, "Problem: bad store index");
                return -1;
            }
        }
    }
    for (i = 0; i < nloads; i++) {
        int j;
        if (self->loads[i] < 0 || self->loads[i] >= n ||
            self->load_slot[i] < -1 || self->load_slot[i] >= nslots ||
            self->rf_off[i] < 0 || self->rf_off[i] > self->rf_off[i + 1]) {
            PyErr_SetString(PyExc_ValueError, "Problem: bad load table");
            return -1;
        }
        for (j = self->rf_off[i]; j < self->rf_off[i + 1]; j++) {
            if (self->rf_flat[j] < RF_INITIAL || self->rf_flat[j] >= n) {
                PyErr_SetString(PyExc_ValueError, "Problem: bad rf candidate");
                return -1;
            }
        }
    }

    self->reach = PyMem_Malloc((size_t)n * self->nw * 8 + 8);
    self->rf_choice = PyMem_Malloc((size_t)(nloads ? nloads : 1) * 4);
    self->co_choice = PyMem_Malloc((size_t)(nslots ? nslots : 1) * 4);
    self->co_position = PyMem_Malloc((size_t)(n ? n : 1) * 4);
    self->trail_cap = 256;
    self->trail_len = 0;
    self->trail_off = PyMem_RawMalloc((size_t)self->trail_cap * 8);
    self->trail_old = PyMem_RawMalloc((size_t)self->trail_cap * 8);
    if (!self->reach || !self->rf_choice || !self->co_choice ||
        !self->co_position || !self->trail_off || !self->trail_old) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* incremental word-array reachability                                 */
/* ------------------------------------------------------------------ */

static int
trail_push(ProblemObject *p, int64_t offset, uint64_t old)
{
    if (p->trail_len == p->trail_cap) {
        int64_t cap = p->trail_cap * 2;
        int64_t *noff = PyMem_RawRealloc(p->trail_off, (size_t)cap * 8);
        uint64_t *nold;
        if (noff == NULL)
            return 0;
        p->trail_off = noff;
        nold = PyMem_RawRealloc(p->trail_old, (size_t)cap * 8);
        if (nold == NULL)
            return 0;
        p->trail_old = nold;
        p->trail_cap = cap;
    }
    p->trail_off[p->trail_len] = offset;
    p->trail_old[p->trail_len] = old;
    p->trail_len++;
    return 1;
}

static void
undo_to(ProblemObject *p, int64_t mark)
{
    while (p->trail_len > mark) {
        p->trail_len--;
        p->reach[p->trail_off[p->trail_len]] = p->trail_old[p->trail_len];
    }
}

/* Insert u -> v; 0 on a cycle (nothing changed), -1 on allocation failure. */
static int
add_edge(ProblemObject *p, int u, int v)
{
    const int nw = p->nw;
    uint64_t *reach = p->reach;
    uint64_t *row_v = reach + (size_t)v * nw;
    int uw = u >> 6, vw = v >> 6;
    uint64_t ubit = (uint64_t)1 << (u & 63), vbit = (uint64_t)1 << (v & 63);
    int w, k;

    if (u == v || (row_v[uw] & ubit))
        return 0;
    for (w = 0; w < p->n; w++) {
        uint64_t *row = reach + (size_t)w * nw;
        if (w != u && !(row[uw] & ubit))
            continue;
        for (k = 0; k < nw; k++) {
            uint64_t gain = row_v[k];
            uint64_t old, merged;
            if (k == vw)
                gain |= vbit;
            old = row[k];
            merged = old | gain;
            if (merged != old) {
                if (!trail_push(p, (int64_t)((size_t)w * nw + k), old))
                    return -1;
                row[k] = merged;
            }
        }
    }
    return 1;
}

/* ------------------------------------------------------------------ */
/* the backtracking search                                             */
/* ------------------------------------------------------------------ */

/* 1 = witness found, 0 = subtree exhausted, -1 = allocation failure */
static int
do_search(ProblemObject *p, int depth)
{
    int kind, arg;
    if (depth == p->nplan)
        return 1;
    kind = p->plan_kind[depth];
    arg = p->plan_arg[depth];
    if (kind == 0) { /* coherence order for slot arg */
        int count = p->co_count[arg], len = p->co_len[arg];
        const int32_t *base = p->co_flat + p->co_off[arg];
        int oi;
        for (oi = 0; oi < count; oi++) {
            const int32_t *order = base + (int64_t)oi * len;
            int64_t mark = p->trail_len;
            int ok = 1, i, inserted;
            for (i = 0; i + 1 < len; i++) {
                inserted = add_edge(p, order[i], order[i + 1]);
                if (inserted != 1) {
                    if (inserted < 0)
                        return -1;
                    ok = 0;
                    break;
                }
            }
            if (ok) {
                int descended;
                p->co_choice[arg] = oi;
                for (i = 0; i < len; i++)
                    p->co_position[order[i]] = i;
                descended = do_search(p, depth + 1);
                if (descended != 0)
                    return descended;
            }
            undo_to(p, mark);
        }
        return 0;
    } else { /* read-from source for load position arg */
        int load = p->loads[arg];
        int slot = p->load_slot[arg];
        int len = p->co_len[slot];
        const int32_t *order =
            p->co_flat + p->co_off[slot] + (int64_t)p->co_choice[slot] * len;
        const uint64_t *po_row = p->po_before + (size_t)load * p->nw;
        int c;
        for (c = p->rf_off[arg]; c < p->rf_off[arg + 1]; c++) {
            int source = p->rf_flat[c];
            int64_t mark = p->trail_len;
            int ok = 1, inserted;
            if (source != RF_INITIAL &&
                p->thread_of[source] != p->thread_of[load]) {
                inserted = add_edge(p, source, load); /* external rf edge */
                if (inserted < 0)
                    return -1;
                ok = inserted;
            }
            if (ok) {
                /* from-read edges: the load precedes every store not
                 * coherence-before its source */
                int start =
                    source == RF_INITIAL ? 0 : p->co_position[source] + 1;
                int i;
                for (i = start; i < len; i++) {
                    int other = order[i];
                    if (other == source)
                        continue;
                    if ((po_row[other >> 6] >> (other & 63)) & 1) {
                        ok = 0; /* anti-program-order edge */
                        break;
                    }
                    inserted = add_edge(p, load, other);
                    if (inserted != 1) {
                        if (inserted < 0)
                            return -1;
                        ok = 0;
                        break;
                    }
                }
            }
            if (ok) {
                int descended;
                p->rf_choice[arg] = source;
                descended = do_search(p, depth + 1);
                if (descended != 0)
                    return descended;
            }
            undo_to(p, mark);
        }
        return 0;
    }
}

static PyObject *
Problem_search(ProblemObject *self, PyObject *args)
{
    PyObject *edges_b;
    char *edges_data;
    Py_ssize_t edges_size;
    const int32_t *edges;
    Py_ssize_t nedges, e;
    int found = 1;
    int i;

    if (!PyArg_ParseTuple(args, "S", &edges_b))
        return NULL;
    if (PyBytes_AsStringAndSize(edges_b, &edges_data, &edges_size) < 0)
        return NULL;
    if (edges_size % 8 != 0) {
        PyErr_SetString(PyExc_ValueError,
                        "search: edge buffer must be pairs of int32");
        return NULL;
    }
    edges = (const int32_t *)edges_data;
    nedges = edges_size / 8;
    for (e = 0; e < nedges * 2; e++) {
        if (edges[e] < 0 || edges[e] >= self->n) {
            PyErr_SetString(PyExc_ValueError, "search: edge index out of range");
            return NULL;
        }
    }

    memset(self->reach, 0, (size_t)self->n * self->nw * 8);
    self->trail_len = 0;
    for (i = 0; i < self->nloads; i++)
        self->rf_choice[i] = RF_INITIAL;

    Py_BEGIN_ALLOW_THREADS
    for (e = 0; e < nedges; e++) {
        int inserted = add_edge(self, edges[e * 2], edges[e * 2 + 1]);
        if (inserted != 1) {
            found = inserted; /* 0: po alone is cyclic (unreachable) */
            break;
        }
    }
    if (found == 1)
        found = do_search(self, 0);
    Py_END_ALLOW_THREADS

    if (found < 0)
        return PyErr_NoMemory();
    if (found == 0)
        Py_RETURN_NONE;
    {
        PyObject *rf = PyTuple_New(self->nloads);
        PyObject *co, *result;
        if (rf == NULL)
            return NULL;
        for (i = 0; i < self->nloads; i++) {
            PyObject *value = PyLong_FromLong(self->rf_choice[i]);
            if (value == NULL) {
                Py_DECREF(rf);
                return NULL;
            }
            PyTuple_SET_ITEM(rf, i, value);
        }
        co = PyTuple_New(self->nslots);
        if (co == NULL) {
            Py_DECREF(rf);
            return NULL;
        }
        for (i = 0; i < self->nslots; i++) {
            PyObject *value = PyLong_FromLong(self->co_choice[i]);
            if (value == NULL) {
                Py_DECREF(rf);
                Py_DECREF(co);
                return NULL;
            }
            PyTuple_SET_ITEM(co, i, value);
        }
        result = PyTuple_Pack(2, rf, co);
        Py_DECREF(rf);
        Py_DECREF(co);
        return result;
    }
}

/* ------------------------------------------------------------------ */
/* reachability micro-benchmark hook                                   */
/* ------------------------------------------------------------------ */

static PyObject *
kernelmod_bench_reach(PyObject *module, PyObject *args)
{
    int n, rounds;
    PyObject *edges_b;
    char *edges_data;
    Py_ssize_t edges_size;
    const int32_t *edges;
    Py_ssize_t nedges, e;
    ProblemObject stack;
    ProblemObject *p = &stack;
    uint64_t checksum = 0;
    int round_index, k;

    if (!PyArg_ParseTuple(args, "iSi", &n, &edges_b, &rounds))
        return NULL;
    if (n <= 0 || rounds < 1) {
        PyErr_SetString(PyExc_ValueError, "bench_reach: bad n or rounds");
        return NULL;
    }
    if (PyBytes_AsStringAndSize(edges_b, &edges_data, &edges_size) < 0)
        return NULL;
    if (edges_size % 8 != 0) {
        PyErr_SetString(PyExc_ValueError, "bench_reach: bad edge buffer");
        return NULL;
    }
    edges = (const int32_t *)edges_data;
    nedges = edges_size / 8;
    for (e = 0; e < nedges * 2; e++) {
        if (edges[e] < 0 || edges[e] >= n) {
            PyErr_SetString(PyExc_ValueError, "bench_reach: edge out of range");
            return NULL;
        }
    }

    memset(p, 0, sizeof(*p));
    p->n = n;
    p->nw = (n + 63) >> 6;
    p->reach = PyMem_Malloc((size_t)n * p->nw * 8);
    p->trail_cap = 256;
    p->trail_off = PyMem_RawMalloc((size_t)p->trail_cap * 8);
    p->trail_old = PyMem_RawMalloc((size_t)p->trail_cap * 8);
    if (!p->reach || !p->trail_off || !p->trail_old) {
        PyMem_Free(p->reach);
        PyMem_RawFree(p->trail_off);
        PyMem_RawFree(p->trail_old);
        return PyErr_NoMemory();
    }

    {
        int failed = 0;
        Py_BEGIN_ALLOW_THREADS
        for (round_index = 0; round_index < rounds && !failed; round_index++) {
            memset(p->reach, 0, (size_t)n * p->nw * 8);
            p->trail_len = 0;
            for (e = 0; e < nedges; e++) {
                int inserted = add_edge(p, edges[e * 2], edges[e * 2 + 1]);
                if (inserted < 0) {
                    failed = 1;
                    break;
                }
                checksum += (uint64_t)(unsigned)inserted;
            }
            for (k = 0; k < n * p->nw; k++)
                checksum ^= p->reach[k];
            undo_to(p, 0);
            for (k = 0; k < n * p->nw; k++)
                checksum += p->reach[k]; /* must be all zeros again */
        }
        Py_END_ALLOW_THREADS

        PyMem_Free(p->reach);
        PyMem_RawFree(p->trail_off);
        PyMem_RawFree(p->trail_old);
        if (failed)
            return PyErr_NoMemory();
    }
    return PyLong_FromUnsignedLongLong(checksum);
}

/* ------------------------------------------------------------------ */
/* type and module boilerplate                                         */
/* ------------------------------------------------------------------ */

static PyMethodDef Problem_methods[] = {
    {"search", (PyCFunction)Problem_search, METH_VARARGS,
     "search(po_edges_bytes) -> None | (rf_tuple, co_choice_tuple)"},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject ProblemType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.native._kernelmod.Problem",
    .tp_basicsize = sizeof(ProblemObject),
    .tp_dealloc = (destructor)Problem_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "A flattened kernel search problem over word buffers.",
    .tp_methods = Problem_methods,
    .tp_init = (initproc)Problem_init,
    .tp_new = PyType_GenericNew,
};

static PyMethodDef kernelmod_methods[] = {
    {"bench_reach", kernelmod_bench_reach, METH_VARARGS,
     "bench_reach(n, edges_bytes, rounds) -> checksum (add/undo micro-bench)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernelmod_module = {
    PyModuleDef_HEAD_INIT,
    "repro.native._kernelmod",
    "Word-array native checking kernel (C fast path).",
    -1,
    kernelmod_methods,
};

PyMODINIT_FUNC
PyInit__kernelmod(void)
{
    PyObject *module;
    if (PyType_Ready(&ProblemType) < 0)
        return NULL;
    module = PyModule_Create(&kernelmod_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&ProblemType);
    if (PyModule_AddObject(module, "Problem", (PyObject *)&ProblemType) < 0) {
        Py_DECREF(&ProblemType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
