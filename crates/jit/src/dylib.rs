//! `dlopen` plumbing for compiled settle engines.
//!
//! The loader is raw `libdl` FFI — no external crates — and the loaded
//! handle lives as long as the [`DylibEngine`], which the simulator holds
//! behind an `Arc`. The handle is closed on drop, after every clone of
//! the owning simulator has released it, so the settle, commit and
//! run function pointers can never outlive their code.

use crate::JitError;
use std::ffi::{c_char, c_int, c_void, CString};
use std::path::{Path, PathBuf};
use strober_sim::{Guard, MemSpan, NativeSettle};

#[link(name = "dl")]
extern "C" {
    fn dlopen(filename: *const c_char, flags: c_int) -> *mut c_void;
    fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
    fn dlclose(handle: *mut c_void) -> c_int;
    fn dlerror() -> *mut c_char;
}

const RTLD_NOW: c_int = 2;

/// `strober_jit_settle`: slab, inputs, registers, memory spans, register
/// next-state. [`MemSpan`] has the layout of the `#[repr(C)] MemSpan` the
/// generated code declares.
type SettleFn = unsafe extern "C" fn(*mut u64, *const u64, *const u64, *const MemSpan, *mut u64);
/// `strober_jit_commit`: slab, memory spans.
type CommitFn = unsafe extern "C" fn(*const u64, *const MemSpan);
/// `strober_jit_run`: slab, inputs, registers, register next-state,
/// memory spans, guard table and its length, budget; returns the cycles
/// clocked. [`Guard`] has the layout of the generated `#[repr(C)] Guard`.
type RunFn = unsafe extern "C" fn(
    *mut u64,
    *const u64,
    *mut u64,
    *mut u64,
    *const MemSpan,
    *const Guard,
    usize,
    u64,
) -> u64;
type SigFn = unsafe extern "C" fn() -> u64;

/// The last `dlerror` as a string, or a placeholder when libdl reports
/// nothing.
fn last_dl_error() -> String {
    // Safety: dlerror returns a thread-local NUL-terminated string or null.
    unsafe {
        let msg = dlerror();
        if msg.is_null() {
            "unknown dlopen error".to_owned()
        } else {
            std::ffi::CStr::from_ptr(msg).to_string_lossy().into_owned()
        }
    }
}

/// A native settle engine loaded from a compiled dylib.
///
/// Implements [`NativeSettle`]; attach with
/// [`Simulator::attach_jit`](strober_sim::Simulator::attach_jit), which
/// verifies [`signature`](NativeSettle::signature) against the tape's
/// own generated source first.
pub struct DylibEngine {
    handle: *mut c_void,
    settle: SettleFn,
    commit: CommitFn,
    run: RunFn,
    sig: u64,
    path: PathBuf,
}

// Safety: the dylib's code section is immutable and the settle, commit
// and run functions write only through the pointers passed per call; the raw
// handle is only used again on drop.
unsafe impl Send for DylibEngine {}
unsafe impl Sync for DylibEngine {}

impl std::fmt::Debug for DylibEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DylibEngine")
            .field("path", &self.path)
            .field("sig", &format_args!("{:#x}", self.sig))
            .finish()
    }
}

impl DylibEngine {
    /// Loads a compiled settle dylib and resolves its entry points.
    ///
    /// # Errors
    ///
    /// [`JitError::Dlopen`] when the file cannot be loaded and
    /// [`JitError::MissingSymbol`] when it is not a strober-jit dylib or
    /// comes from a codegen revision without one of the entry points.
    pub fn load(path: &Path) -> Result<Self, JitError> {
        let c_path = CString::new(path.as_os_str().as_encoded_bytes())
            .map_err(|_| JitError::Dlopen("path contains NUL".to_owned()))?;
        // Safety: plain dlopen of a regular file path.
        let handle = unsafe { dlopen(c_path.as_ptr(), RTLD_NOW) };
        if handle.is_null() {
            return Err(JitError::Dlopen(last_dl_error()));
        }
        let lookup = |name: &'static str| -> Result<*mut c_void, JitError> {
            let c_name = CString::new(name).expect("static name");
            // Safety: handle is the live handle opened above.
            let sym = unsafe { dlsym(handle, c_name.as_ptr()) };
            if sym.is_null() {
                // Safety: closing the handle we just opened.
                unsafe { dlclose(handle) };
                Err(JitError::MissingSymbol(name))
            } else {
                Ok(sym)
            }
        };
        let settle_sym = lookup("strober_jit_settle")?;
        let commit_sym = lookup("strober_jit_commit")?;
        let run_sym = lookup("strober_jit_run")?;
        let sig_sym = lookup("strober_jit_sig")?;
        // Safety: transmuting a data pointer to a function pointer is
        // what dlsym requires on every Unix. `strober_jit_sig` is nullary
        // in every codegen revision; `strober_jit_settle`,
        // `strober_jit_commit` and `strober_jit_run` have `SettleFn`'s,
        // `CommitFn`'s and `RunFn`'s shapes in the revision whose
        // signatures `Simulator::attach_jit` accepts (all three headers
        // are hashed into the signature, so a dylib from an older
        // revision is refused before any of them runs).
        let settle: SettleFn = unsafe { std::mem::transmute(settle_sym) };
        let commit: CommitFn = unsafe { std::mem::transmute(commit_sym) };
        let run: RunFn = unsafe { std::mem::transmute(run_sym) };
        let sig_fn: SigFn = unsafe { std::mem::transmute(sig_sym) };
        // Safety: nullary pure function exported by the generated code.
        let sig = unsafe { sig_fn() };
        Ok(DylibEngine {
            handle,
            settle,
            commit,
            run,
            sig,
            path: path.to_path_buf(),
        })
    }

    /// Where the dylib was loaded from.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for DylibEngine {
    fn drop(&mut self) {
        // Safety: the handle is live and no call can be in flight — the
        // simulator's Arc keeps the engine alive across every clone.
        unsafe { dlclose(self.handle) };
    }
}

impl NativeSettle for DylibEngine {
    unsafe fn settle(
        &self,
        values: &mut [u64],
        inputs: &[u64],
        regs: &[u64],
        mems: &[MemSpan],
        reg_next: &mut [u64],
    ) {
        assert_eq!(
            reg_next.len(),
            regs.len(),
            "register next-state and register file differ in length"
        );
        // SAFETY: the generated entry point's contract (its `# Safety`
        // section in `strober-sim`'s codegen header), met clause by clause:
        // - `values` is the slab of the tape whose source hash is this
        //   engine's signature (`NativeSettle::settle`'s contract), and
        //   that hash covers the slab length every baked slot index was
        //   checked against;
        // - `inputs`, `regs` and `mems` have that design's port, register
        //   and memory counts and the spans describe live buffers (the
        //   same contract); `reg_next` has the register file's length
        //   (asserted above) and, being a separate `&mut`, overlaps
        //   nothing;
        // - the borrows last the whole call, nothing else accesses the
        //   memories meanwhile (the same contract), and the code writes
        //   only through `values` and `reg_next`, only reads `mems` and
        //   keeps no pointer.
        unsafe {
            (self.settle)(
                values.as_mut_ptr(),
                inputs.as_ptr(),
                regs.as_ptr(),
                mems.as_ptr(),
                reg_next.as_mut_ptr(),
            );
        }
    }

    unsafe fn commit(&self, values: &[u64], mems: &[MemSpan]) {
        // SAFETY: the generated commit's contract (its `# Safety`
        // section in `strober-sim`'s codegen header), met clause by clause:
        // - `values` is the slab of the tape whose source hash is this
        //   engine's signature, and a settle of the current state stored
        //   every write-port slot the commit reads
        //   (`NativeSettle::commit`'s contract);
        // - `mems` holds one span per memory of that design, each valid
        //   for writes of `len` words, and nothing else accesses them
        //   during the call (the same contract);
        // - the borrows last the whole call, and the code writes only
        //   memory words below each span's `len` and keeps no pointer.
        unsafe { (self.commit)(values.as_ptr(), mems.as_ptr()) }
    }

    unsafe fn run(
        &self,
        values: &mut [u64],
        inputs: &[u64],
        regs: &mut [u64],
        reg_next: &mut [u64],
        mems: &[MemSpan],
        guards: &[Guard],
        budget: u64,
    ) -> u64 {
        assert_eq!(
            reg_next.len(),
            regs.len(),
            "register next-state and register file differ in length"
        );
        // SAFETY: the generated run loop's contract (its `# Safety`
        // section in `strober-sim`'s codegen header), met clause by clause:
        // - the settle's and the commit's clauses, as in `settle` and
        //   `commit` above (`NativeSettle::run`'s contract): `values` is
        //   the slab of this engine's tape, `inputs`, `regs`, `reg_next`
        //   and `mems` have that design's shapes, and the spans are valid
        //   for reads and writes of their buffers;
        // - `regs` and `reg_next` have one length (asserted above) and,
        //   being separate `&mut`s, overlap nothing, so the loop may
        //   settle from either into the other;
        // - `guards` is a live slice of `guards.len()` guards whose slots
        //   lie below `values.len()` (the same contract);
        // - the borrows last the whole call, nothing else accesses the
        //   memories meanwhile, and the code keeps no pointer.
        unsafe {
            (self.run)(
                values.as_mut_ptr(),
                inputs.as_ptr(),
                regs.as_mut_ptr(),
                reg_next.as_mut_ptr(),
                mems.as_ptr(),
                guards.as_ptr(),
                guards.len(),
                budget,
            )
        }
    }

    fn signature(&self) -> u64 {
        self.sig
    }
}
