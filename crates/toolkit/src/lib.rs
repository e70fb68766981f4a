#![forbid(unsafe_code)]
//! The GRANDMA architecture: Models, Views, and event-handler lists.
//!
//! §3: "GRANDMA is a Model/View/Controller-like system. In GRANDMA, models
//! are application objects, views are objects responsible for displaying
//! models, and event handlers deal with input directed at views. GRANDMA
//! generalizes MVC by allowing a list of event handlers (rather than a
//! single controller) to be associated with a view. Event handlers may be
//! associated with view classes as well, and are inherited."
//!
//! This crate reproduces that architecture headlessly:
//!
//! * [`ViewStore`] — views with bounds, z-order, class names, and attached
//!   models (semantic objects from `grandma-sem`).
//! * [`Interface`] — the dispatch loop: picks the view under a mouse-down,
//!   queries its per-view then per-class handler lists in order
//!   (unconsumed events propagate to the next handler, then to the root
//!   window's handlers), and routes the rest of the interaction to the
//!   handler that claimed it.
//! * [`DragHandler`] — the classic direct-manipulation interaction.
//! * [`GestureHandler`] — the paper's centrepiece: the two-phase
//!   collection→manipulation interaction, with all three phase-transition
//!   triggers (mouse-up, 200 ms dwell, eager recognition) and interpreted
//!   `recog`/`manip`/`done` semantics per gesture class. The state
//!   machine itself is grandma-core's interaction engine, which the
//!   server's session pipeline drives too.
//!
//! # Examples
//!
//! ```
//! use grandma_toolkit::{Interface, ViewStore};
//! use grandma_geom::BBox;
//!
//! let mut interface = Interface::new();
//! let id = interface
//!     .views_mut()
//!     .add_view("Shape", BBox::from_corners(0.0, 0.0, 10.0, 10.0));
//! assert_eq!(interface.views().pick(5.0, 5.0), Some(id));
//! assert_eq!(interface.views().pick(50.0, 50.0), None);
//! ```

mod drag;
mod gesture_handler;
mod handler;
mod view;

pub use drag::DragHandler;
pub use gesture_handler::{GestureClass, GestureHandler, GestureHandlerConfig, InteractionTrace};
pub use grandma_core::interaction::{InteractionConfig, InteractionOutcome, PhaseTransition};
pub use handler::{handler_ref, Ctx, EventHandler, HandlerRef, HandlerResult, Interface};
pub use view::{View, ViewId, ViewStore};
